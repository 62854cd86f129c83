// Package radio models the shared wireless medium.
//
// The propagation model is a per-transmitter disk: a frame transmitted by
// a node is decodable by every node within the *transmitter's* decodable
// range and causes interference at every node within the transmitter's
// carrier-sense range. With a single global Range/CSRange (the default)
// this is the classic symmetric unit disk; with per-class ranges
// (Config.Classes) links become directional — a long-range node's frames
// reach a short-range node that can never answer. Two signals overlapping
// in time at a receiver corrupt each other, as does receiving while
// transmitting. This reproduces the contention behaviour that drives the
// relative protocol performance in the LDR paper without modelling an
// explicit PHY.
//
// The paper's simulations use "the MAC layer with a 275 m transmission
// range" at 2 Mb/s; those are the defaults here.
//
// Receiver lookup is a uniform spatial-hash grid (see grid.go) instead of
// an O(N) scan over all nodes, and node positions are computed at most
// once per transmit instant and cached, so the per-frame cost scales with
// the local node density rather than the network size.
package radio

import (
	"sort"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/runpool"
	"github.com/manetlab/ldr/internal/sim"
)

// Class is one transmit-power class: the decodable and carrier-sense
// ranges governing every frame sent by a node assigned to it. Reception
// is decided by the transmitter's class alone — a weak node still hears
// a strong one from far away — which is what makes mixed classes produce
// genuinely one-way links.
type Class struct {
	Range   float64 // decodable range, meters
	CSRange float64 // carrier-sense/interference range, meters
}

// Config parameterizes the medium.
type Config struct {
	Range     float64       // decodable range, meters
	CSRange   float64       // carrier-sense/interference range, meters
	BitRate   float64       // channel rate, bits per second
	PropDelay time.Duration // fixed propagation delay

	// Classes, when non-empty, assigns heterogeneous transmit power:
	// node i sends with Classes[i % len(Classes)] instead of the global
	// Range/CSRange. The assignment is a pure function of the node id so
	// enabling classes draws no randomness and cannot perturb any seeded
	// stream. Empty keeps the uniform disk, byte-identical to a medium
	// built before classes existed.
	Classes []Class

	// GridWindow bounds how stale a node's spatial-grid bucket may get:
	// every node is re-bucketed at least once per window of virtual time.
	// GridSlack pads the grid cell size beyond CSRange so the 3×3 cell
	// lookup stays exhaustive while buckets age; it must be at least
	// (max node speed) × GridWindow. The defaults (100 ms, 50 m) are
	// exhaustive for node speeds up to 500 m/s. Zero values select the
	// defaults. Receiver sets are exact regardless — candidates are
	// always re-checked against exact positions.
	GridWindow time.Duration
	GridSlack  float64
}

// DefaultConfig matches the paper's simulation setup: 275 m transmission
// range, 2 Mb/s channel, interference out to twice the decodable range.
func DefaultConfig() Config {
	return Config{
		Range:     275,
		CSRange:   550,
		BitRate:   2e6,
		PropDelay: time.Microsecond,
	}
}

// ReceiverFunc is invoked for every frame successfully decoded at a node.
// Addressing and ACKing are the MAC's concern; the radio delivers any
// uncorrupted frame that arrives within decodable range.
type ReceiverFunc func(from int, payload any)

// Releasable is implemented by payloads whose lifetime is reference
// counted (pooled MAC air frames). The medium takes a reference for every
// reception it creates and for every delivery the fault hook defers, and
// drops it when the reception ends (or the deferred delivery fires), so a
// pooled payload is never recycled while the radio can still read it.
// Payloads that do not implement Releasable are managed by the garbage
// collector as before.
type Releasable interface {
	Ref()
	Unref()
}

// ref takes a reference on a refcounted payload; a no-op otherwise.
func ref(payload any) {
	if r, ok := payload.(Releasable); ok {
		r.Ref()
	}
}

// unref drops a reference on a refcounted payload; a no-op otherwise.
func unref(payload any) {
	if r, ok := payload.(Releasable); ok {
		r.Unref()
	}
}

// IdleWaiter is the channel-idle callback target: w.ChannelIdle(u) runs
// the next moment the channel at the registered node goes idle. The
// scalar u is carried through untouched (the MAC passes its power-cycle
// epoch), so waiters need no per-wait closure state.
type IdleWaiter interface {
	ChannelIdle(u uint64)
}

// idleWait is one registered channel-idle callback.
type idleWait struct {
	w IdleWaiter
	u uint64
}

// Medium is the shared channel connecting every node's radio.
type Medium struct {
	sim   *sim.Simulator
	model mobility.Model
	cfg   Config
	nodes []nodeState

	// Per-node transmit ranges, resolved once from cfg.Classes (or filled
	// uniformly from cfg.Range/CSRange), so the hot path indexes a slice
	// instead of re-deriving class membership per frame.
	txRange []float64
	csRange []float64

	// Position cache: pos[i] is node i's position at virtual time
	// posTime[i]. Every lookup in one transmit instant hits the cache, so
	// Position is computed once per node per instant, not once per
	// (sender, receiver) pair.
	pos     []mobility.Point
	posTime []time.Duration

	grid      *grid
	gridTime  time.Duration // time of the last full re-bucketing
	gridFresh bool

	cand []int32 // scratch receiver-candidate buffer, reused per call

	txPool runpool.Pool[transmission] // recycled transmissions

	// Pre-bound event callbacks, so the hot path schedules no closures.
	startFn func(any, uint64)
	endFn   func(any, uint64)
	idleFn  func(any, uint64)

	// flt holds the fault-injection hooks (see fault.go); nil while no
	// fault has ever been installed, which keeps the fault-free hot path
	// to a single pointer test.
	flt *faults

	// Transmissions counts frames put on the air, for diagnostics.
	Transmissions uint64
	// Corrupted counts per-receiver receptions lost to collisions.
	Corrupted uint64
	// FaultStats counts fault-hook activity (zero without faults).
	FaultStats FaultStats
}

type nodeState struct {
	rx      ReceiverFunc
	signals int           // overlapping signals currently sensed
	txUntil time.Duration // end of this node's own transmission
	active  []*reception  // decodable receptions currently in the air here

	// onIdle holds one-shot channel-idle waiters; idleSpare is the
	// detached buffer from the previous checkIdle, kept so the two swap
	// roles and neither list ever reallocates in steady state.
	onIdle    []idleWait
	idleSpare []idleWait
}

type reception struct {
	from      int32
	dst       int32
	decodable bool
	corrupted bool
	payload   any
}

// transmission is one frame on the air. Every reception of a frame
// starts and ends at the same two instants, so the medium schedules one
// start and one end event per transmission, and each walks the
// receptions in candidate order. That is exactly the order separate
// per-reception events would fire in: they would hold consecutive
// sequence numbers at one instant, and no callback runs inside Transmit
// to schedule anything between them. Receptions live in the slice by
// value; it is appended to only inside Transmit, so the addresses that
// nodes' active lists hold stay valid until the end event recycles the
// transmission.
type transmission struct {
	rcs []reception
}

// New builds a medium over the given mobility model. Positions are sampled
// from the model at transmission start; a frame's receiver set is fixed at
// that instant (frames are microseconds long, far below node motion scale).
func New(s *sim.Simulator, model mobility.Model, cfg Config) *Medium {
	if cfg.CSRange < cfg.Range {
		cfg.CSRange = cfg.Range
	}
	// Clamp per-class carrier sense on a private copy (the caller's slice
	// stays untouched), mirroring the global clamp above.
	cfg.Classes = append([]Class(nil), cfg.Classes...)
	for i := range cfg.Classes {
		if cfg.Classes[i].CSRange < cfg.Classes[i].Range {
			cfg.Classes[i].CSRange = cfg.Classes[i].Range
		}
	}
	if cfg.GridWindow <= 0 {
		cfg.GridWindow = 100 * time.Millisecond
	}
	if cfg.GridSlack <= 0 {
		cfg.GridSlack = 50
	}
	n := model.NumNodes()
	// The grid's 3×3 lookup is exhaustive only if cells are at least as
	// wide as the largest range any transmitter reaches, so with mixed
	// classes the cell size must come from the class *maximum* — sizing
	// it from a class minimum (or the global default) would silently drop
	// far receivers of the strongest transmitters.
	maxCS := cfg.CSRange
	if len(cfg.Classes) > 0 {
		maxCS = cfg.Classes[0].CSRange
		for _, c := range cfg.Classes[1:] {
			if c.CSRange > maxCS {
				maxCS = c.CSRange
			}
		}
	}
	m := &Medium{
		sim:     s,
		model:   model,
		cfg:     cfg,
		nodes:   make([]nodeState, n),
		txRange: make([]float64, n),
		csRange: make([]float64, n),
		pos:     make([]mobility.Point, n),
		posTime: make([]time.Duration, n),
		grid:    newGrid(n, maxCS+cfg.GridSlack),
	}
	for i := 0; i < n; i++ {
		r, c := cfg.Range, cfg.CSRange
		if len(cfg.Classes) > 0 {
			cl := cfg.Classes[i%len(cfg.Classes)]
			r, c = cl.Range, cl.CSRange
		}
		m.txRange[i], m.csRange[i] = r, c
	}
	for i := range m.posTime {
		m.posTime[i] = -1 // sentinel: no position cached yet
	}
	m.startFn = m.txStart
	m.endFn = m.txEnd
	m.idleFn = m.idleAt
	return m
}

// Config returns the medium's configuration.
func (m *Medium) Config() Config { return m.cfg }

// Model exposes the mobility model driving node positions, for analysis
// tools (e.g. the topology oracle).
func (m *Medium) Model() mobility.Model { return m.model }

// Attach registers the frame-delivery callback for a node.
func (m *Medium) Attach(id int, rx ReceiverFunc) {
	m.nodes[id].rx = rx
}

// position returns node id's position at the current instant, computing
// it at most once per instant and keeping the node's grid bucket fresh.
func (m *Medium) position(id int) mobility.Point {
	now := m.sim.Now()
	if m.posTime[id] != now {
		m.pos[id] = m.model.Position(id, now)
		m.posTime[id] = now
		m.grid.update(id, m.pos[id])
	}
	return m.pos[id]
}

// maybeRefresh re-buckets every node once the grid's staleness window has
// elapsed, bounding how far any bucket can lag its node's true position.
// Amortized cost: one O(N) position pass per GridWindow of virtual time,
// versus one per transmission before the grid existed.
func (m *Medium) maybeRefresh() {
	now := m.sim.Now()
	if m.gridFresh && now-m.gridTime <= m.cfg.GridWindow {
		return
	}
	for i := range m.nodes {
		m.position(i)
	}
	m.gridTime = now
	m.gridFresh = true
}

// Busy reports whether node id currently senses the channel busy (a signal
// in the air within carrier-sense range, or its own transmission).
func (m *Medium) Busy(id int) bool {
	st := &m.nodes[id]
	return st.signals > 0 || st.txUntil > m.sim.Now()
}

// NotifyIdle registers a one-shot waiter invoked (as w.ChannelIdle(u))
// the next moment node id's channel becomes idle. If the channel is
// already idle the callback runs in a zero-delay event.
func (m *Medium) NotifyIdle(id int, w IdleWaiter, u uint64) {
	if !m.Busy(id) {
		m.sim.ScheduleTransient(0, idleNowFn, w, u)
		return
	}
	st := &m.nodes[id]
	st.onIdle = append(st.onIdle, idleWait{w: w, u: u})
}

// idleNowFn fires an already-idle NotifyIdle registration; package-level
// so scheduling it allocates no closure.
func idleNowFn(arg any, u uint64) { arg.(IdleWaiter).ChannelIdle(u) }

// idleAt is the pre-bound transient callback for the sender's own
// end-of-transmission idle check; the node index travels in u unboxed.
func (m *Medium) idleAt(_ any, u uint64) { m.checkIdle(int(u)) }

// AirTime returns how long a frame of the given size occupies the channel.
func (m *Medium) AirTime(bits int) time.Duration {
	return time.Duration(float64(bits) / m.cfg.BitRate * float64(time.Second))
}

// Transmit puts a frame on the air from node src and returns its airtime.
// The MAC is responsible for carrier sensing before calling Transmit; the
// radio faithfully transmits (and collides) regardless.
func (m *Medium) Transmit(src, bits int, payload any) time.Duration {
	now := m.sim.Now()
	air := m.AirTime(bits)
	m.Transmissions++

	sender := &m.nodes[src]
	sender.txUntil = now + air
	// Receiving while transmitting corrupts anything arriving here.
	for _, rc := range sender.active {
		if !rc.corrupted {
			rc.corrupted = true
			m.Corrupted++
		}
	}
	m.sim.ScheduleTransient(air, m.idleFn, nil, uint64(src))

	m.maybeRefresh()
	srcPos := m.position(src)
	tx := m.txPool.Get()
	m.cand = m.grid.appendCandidates(srcPos, m.cand[:0])
	for _, c := range m.cand {
		i := int(c)
		if i == src || m.nodes[i].rx == nil {
			continue
		}
		if m.flt != nil && m.blocked(src, i) {
			m.FaultStats.Blocked++
			continue
		}
		d := srcPos.Dist(m.position(i))
		if d > m.csRange[src] {
			continue
		}
		tx.rcs = append(tx.rcs, reception{
			from: int32(src), dst: int32(i), decodable: d <= m.txRange[src], payload: payload,
		})
		ref(payload) // the reception reads the payload until it ends
	}
	if len(tx.rcs) == 0 {
		m.txPool.Put(tx)
		return air
	}
	m.sim.ScheduleTransient(m.cfg.PropDelay, m.startFn, tx, 0)
	m.sim.ScheduleTransient(m.cfg.PropDelay+air, m.endFn, tx, 0)
	return air
}

// txStart is the pre-bound start event of a transmission: the frame's
// leading edge reaches every receiver at once.
func (m *Medium) txStart(arg any, _ uint64) {
	tx := arg.(*transmission)
	for k := range tx.rcs {
		m.signalStart(&tx.rcs[k])
	}
}

// txEnd is the pre-bound end event of a transmission. Receiver
// callbacks run inside the walk; anything they schedule at this instant
// fires after the whole walk, just as it would fire after the frame's
// remaining per-reception end events.
func (m *Medium) txEnd(arg any, _ uint64) {
	tx := arg.(*transmission)
	for k := range tx.rcs {
		rc := &tx.rcs[k]
		m.signalEnd(rc)
		// The reception is over and off every active list: drop its
		// payload reference now, before the next receiver's end, so a
		// payload's release point does not depend on the batching.
		unref(rc.payload)
		*rc = reception{}
	}
	tx.rcs = tx.rcs[:0]
	m.txPool.Put(tx)
}

// signalStart applies one reception's leading edge at its receiver.
func (m *Medium) signalStart(rc *reception) {
	st := &m.nodes[rc.dst]
	st.signals++
	if rc.decodable {
		st.active = append(st.active, rc)
	}
	if st.signals > 1 {
		// Collision: every decodable reception currently in the air at this
		// node is lost, including the one that just began.
		for _, r := range st.active {
			if !r.corrupted {
				r.corrupted = true
				m.Corrupted++
			}
		}
	}
	if st.txUntil > m.sim.Now() && rc.decodable && !rc.corrupted {
		rc.corrupted = true
		m.Corrupted++
	}
}

// signalEnd applies one reception's trailing edge at its receiver,
// delivering the frame if it survived.
func (m *Medium) signalEnd(rc *reception) {
	st := &m.nodes[rc.dst]
	st.signals--
	if rc.decodable {
		for i, r := range st.active {
			if r == rc {
				st.active = append(st.active[:i], st.active[i+1:]...)
				break
			}
		}
		if !rc.corrupted && st.txUntil <= m.sim.Now() && st.rx != nil {
			if f := m.flt; f != nil && f.src != nil {
				m.deliverFaulty(f, rc)
			} else {
				st.rx(int(rc.from), rc.payload)
			}
		}
	}
	m.checkIdle(int(rc.dst))
}

func (m *Medium) checkIdle(id int) {
	st := &m.nodes[id]
	if st.signals > 0 || st.txUntil > m.sim.Now() {
		return
	}
	if len(st.onIdle) == 0 {
		return
	}
	// Detach before invoking — a waiter may re-register during the loop —
	// and keep the detached buffer as the next registration list, so the
	// two buffers alternate and neither ever reallocates once warm.
	cbs := st.onIdle
	st.onIdle = st.idleSpare[:0]
	for i, w := range cbs {
		cbs[i] = idleWait{}
		w.w.ChannelIdle(w.u)
	}
	st.idleSpare = cbs[:0]
}

// TxRange returns node id's decodable transmit range in meters.
func (m *Medium) TxRange(id int) float64 { return m.txRange[id] }

// TxRanges returns every node's decodable transmit range, indexed by node
// id. The slice is the medium's own — callers must not mutate it. It
// feeds the topology oracle's per-node connectivity snapshots.
func (m *Medium) TxRanges() []float64 { return m.txRange }

// InRangeFrom reports whether dst can currently decode src's
// transmissions. The predicate is directional: with mixed transmit-power
// classes InRangeFrom(a, b) says nothing about InRangeFrom(b, a).
func (m *Medium) InRangeFrom(src, dst int) bool {
	return m.position(src).Dist(m.position(dst)) <= m.txRange[src]
}

// InRange reports whether two nodes can currently decode each other — a
// usable link, since unicast data needs the return direction for the MAC
// ACK. With uniform ranges this is the classic symmetric disk predicate.
func (m *Medium) InRange(a, b int) bool {
	d := m.position(a).Dist(m.position(b))
	return d <= m.txRange[a] && d <= m.txRange[b]
}

// ReachableFrom returns the nodes that can currently decode id's
// transmissions (id's out-neighbors), in ascending id order. With
// heterogeneous classes this is NOT the set id can hear from.
func (m *Medium) ReachableFrom(id int) []int {
	return m.ReachableFromAppend(id, nil)
}

// ReachableFromAppend appends id's out-neighbors to out (in ascending id
// order) and returns the extended slice. Candidates come from the grid,
// whose cells are sized from the maximum class range, so the scan stays
// exhaustive for the strongest transmitter.
func (m *Medium) ReachableFromAppend(id int, out []int) []int {
	m.maybeRefresh()
	p := m.position(id)
	base := len(out)
	m.cand = m.grid.appendCandidates(p, m.cand[:0])
	for _, c := range m.cand {
		i := int(c)
		if i == id {
			continue
		}
		if p.Dist(m.position(i)) <= m.txRange[id] {
			out = append(out, i)
		}
	}
	sort.Ints(out[base:])
	return out
}

// Neighbors returns the nodes id currently shares a usable (mutually
// decodable) link with, in ascending id order. It is an observability
// helper for analysis tools, not a protocol input.
func (m *Medium) Neighbors(id int) []int {
	return m.NeighborsAppend(id, nil)
}

// NeighborsAppend appends the nodes id currently shares a usable link
// with to out (in ascending id order) and returns the extended slice,
// allowing callers that poll connectivity (loop checkers, topology
// oracles) to reuse one buffer across calls instead of allocating per
// query. Under uniform ranges this is exactly the old within-Range set.
func (m *Medium) NeighborsAppend(id int, out []int) []int {
	m.maybeRefresh()
	p := m.position(id)
	base := len(out)
	m.cand = m.grid.appendCandidates(p, m.cand[:0])
	for _, c := range m.cand {
		i := int(c)
		if i == id {
			continue
		}
		if d := p.Dist(m.position(i)); d <= m.txRange[id] && d <= m.txRange[i] {
			out = append(out, i)
		}
	}
	sort.Ints(out[base:])
	return out
}
