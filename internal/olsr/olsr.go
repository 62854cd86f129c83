// Package olsr implements the Optimized Link State Routing protocol
// (Clausen et al., draft-ietf-manet-olsr), the proactive baseline in the
// LDR paper.
//
// OLSR floods topology information continuously: HELLO messages build the
// one- and two-hop neighborhoods and elect multipoint relays (MPRs), and
// TC messages — forwarded only by MPRs — advertise each node's MPR
// selectors network-wide. Every node runs a shortest-path computation over
// the resulting partial topology graph, so routes exist before data needs
// them (the low-latency advantage the paper observes) at the cost of
// constant control overhead.
//
// The paper found "packet jitter problems in the OLSR code from INRIA" and
// introduced a FIFO jitter queue that spaces broadcast transmissions by a
// uniform 0–15 ms while preserving FIFO order; the same queue is
// implemented here (Config.JitterQueue) and its effect is measurable in
// the ablation benchmark.
package olsr

import (
	"cmp"
	"slices"
	"time"

	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/routing"
	"github.com/manetlab/ldr/internal/runpool"
	"github.com/manetlab/ldr/internal/sim"
)

// LinkCode describes a neighbor's status inside a HELLO.
type LinkCode uint8

// Link codes, a condensed version of RFC 3626 §6.
const (
	LinkAsym LinkCode = iota + 1 // heard them; not yet bidirectional
	LinkSym                      // bidirectional
	LinkMPR                      // bidirectional and selected as our MPR
)

// Config parameterizes OLSR.
type Config struct {
	HelloInterval time.Duration
	TCInterval    time.Duration
	NeighborHold  time.Duration // link expiry (3 × hello)
	TopologyHold  time.Duration // TC tuple expiry (3 × TC)
	DupHold       time.Duration // duplicate-set retention
	JitterQueue   bool          // the paper's FIFO jitter queue
	MaxJitter     time.Duration // uniform inter-packet jitter bound
	NetDiameter   int
}

// DefaultConfig returns RFC-3626 default intervals with the paper's
// jitter-queue fix enabled.
func DefaultConfig() Config {
	return Config{
		HelloInterval: 2 * time.Second,
		TCInterval:    5 * time.Second,
		NeighborHold:  6 * time.Second,
		TopologyHold:  15 * time.Second,
		DupHold:       30 * time.Second,
		JitterQueue:   true,
		MaxJitter:     15 * time.Millisecond,
		NetDiameter:   35,
	}
}

// HelloNeighbor is one entry in a HELLO message.
type HelloNeighbor struct {
	ID   routing.NodeID
	Code LinkCode
}

// Hello advertises this node's current neighborhood. Never forwarded.
type Hello struct {
	Origin    routing.NodeID
	Neighbors []HelloNeighbor
}

// Kind implements routing.Message.
func (Hello) Kind() metrics.ControlKind { return metrics.Hello }

// Size implements routing.Message: computed arithmetically from the wire
// layout so the periodic send path does not marshal; the wire round-trip
// tests pin it to len(Marshal()).
func (h Hello) Size() int { return helloWireBase + helloWirePerNbr*len(h.Neighbors) }

// TC advertises the origin's MPR selector set; flooded via MPRs.
type TC struct {
	Origin    routing.NodeID
	Seq       uint16 // message sequence number for duplicate suppression
	ANSN      uint16 // advertised neighbor sequence number
	Selectors []routing.NodeID
	TTL       int
}

// Kind implements routing.Message.
func (TC) Kind() metrics.ControlKind { return metrics.TC }

// Size implements routing.Message.
func (t TC) Size() int { return tcWireBase + tcWirePerSel*len(t.Selectors) }

// Wire sizes of the fixed-layout prefixes (type byte and entry-count
// fields included); pinned against Marshal by the wire round-trip tests.
const (
	helloWireBase   = 1 + 4 + 2
	helloWirePerNbr = 4 + 1
	tcWireBase      = 1 + 4 + 2 + 2 + 1 + 2
	tcWirePerSel    = 4
)

type linkState struct {
	symmetric bool
	isMPR     bool // we selected this neighbor as MPR
	expiry    time.Duration
}

// twoHopTuple is one node a symmetric neighbor lists as its own
// symmetric neighbor.
type twoHopTuple struct {
	id     routing.NodeID
	expiry time.Duration
}

// topoSet is one TC origin's advertised set: the RFC 3626 §9.5 topology
// tuples whose T_last_addr is that origin. A fresh TC replaces the set
// whole, so its destinations share one ANSN and one expiry. An empty
// dsts means the origin has no tuples.
type topoSet struct {
	ansn   uint16
	expiry time.Duration
	dsts   []routing.NodeID
}

type dupKey struct {
	origin routing.NodeID
	seq    uint16
}

// dupEntry records one receipt of a flooded message. Receipts are
// appended in arrival order and DupHold is fixed, so the log is sorted
// by expiry and sweep only looks at its lapsed head.
type dupEntry struct {
	key    dupKey
	expiry time.Duration
}

// route is a routing-table entry; hops == 0 means no route.
type route struct {
	next routing.NodeID
	hops int
}

// mprCand is a symmetric neighbor that reaches at least one strict
// two-hop node; those nodes are mprScratch.reach[lo:hi].
type mprCand struct {
	id     routing.NodeID
	lo, hi int
	mpr    bool
}

// mprScratch is recomputeMPRs' reusable working set.
type mprScratch struct {
	cands []mprCand
	reach []routing.NodeID
	count []int // by two-hop ID: candidates still able to cover it (0 = covered or absent)
}

// OLSR is one node's protocol instance.
type OLSR struct {
	node *routing.Node
	cfg  Config

	// Link state. twoHop and topology are dense by node ID and only
	// ever grow; an empty entry means "nothing known".
	links     map[routing.NodeID]*linkState
	twoHop    [][]twoHopTuple                  // by neighbor ID: its symmetric neighbors
	selectors map[routing.NodeID]time.Duration // neighbors that chose us as MPR
	topology  []topoSet                        // by TC origin
	dup       map[dupKey]time.Duration
	dupLog    []dupEntry // receipts in arrival order, from dupHead on
	dupHead   int

	// Routing table, dense by destination ID. order lists the routed
	// destinations in BFS order and is the BFS queue while recompute
	// runs.
	routes []route
	order  []routing.NodeID
	dirty  bool

	mpr        mprScratch
	ansn       uint16
	msgSeq     uint16
	helloTimer sim.Timer
	tcTimer    sim.Timer
	sweeper    sim.Timer
	queue      *jitterQueue
	stopped    bool

	// Run-local message pools: wire messages are pooled pointers recycled
	// by the sending node once the MAC releases the frame.
	helloPool runpool.Pool[Hello]
	tcPool    runpool.Pool[TC]
}

var (
	_ routing.Protocol           = (*OLSR)(nil)
	_ routing.TableSnapshotter   = (*OLSR)(nil)
	_ routing.TableAppender      = (*OLSR)(nil)
	_ routing.Resetter           = (*OLSR)(nil)
	_ routing.DataFailureHandler = (*OLSR)(nil)
	_ routing.MessageRecycler    = (*OLSR)(nil)
)

// New builds an OLSR instance bound to a node.
func New(node *routing.Node, cfg Config) *OLSR {
	o := &OLSR{
		node:      node,
		cfg:       cfg,
		links:     make(map[routing.NodeID]*linkState),
		selectors: make(map[routing.NodeID]time.Duration),
		dup:       make(map[dupKey]time.Duration),
	}
	o.queue = newJitterQueue(o, cfg)
	return o
}

// Start implements routing.Protocol: begins the HELLO/TC emission cycle,
// desynchronized across nodes by a random initial phase.
func (o *OLSR) Start() {
	helloPhase := time.Duration(o.node.RNG().Float64() * float64(o.cfg.HelloInterval))
	tcPhase := o.cfg.HelloInterval + time.Duration(o.node.RNG().Float64()*float64(o.cfg.TCInterval))
	o.helloTimer = o.node.Schedule(helloPhase, o.sendHello)
	o.tcTimer = o.node.Schedule(tcPhase, o.sendTC)
	o.sweeper = o.node.Schedule(time.Second, o.sweep)
}

// Stop implements routing.Protocol.
func (o *OLSR) Stop() {
	o.stopped = true
	o.helloTimer.Cancel()
	o.tcTimer.Cancel()
	o.sweeper.Cancel()
}

// Reset implements routing.Resetter: a crash clears the entire link-state
// view — links, two-hop sets, MPR selectors, topology tuples, duplicate
// table, and computed routes — and cancels the periodic timers, which
// Start re-arms with fresh phases at reboot. ansn and msgSeq survive:
// they version this node's advertisements, and restarting them at zero
// would make neighbors' duplicate and topology tables discard the
// rebooted node's fresh messages as stale for a full holding time.
func (o *OLSR) Reset() {
	o.helloTimer.Cancel()
	o.tcTimer.Cancel()
	o.sweeper.Cancel()
	o.helloTimer, o.tcTimer, o.sweeper = sim.Timer{}, sim.Timer{}, sim.Timer{}
	clear(o.links)
	for i := range o.twoHop {
		o.twoHop[i] = o.twoHop[i][:0]
	}
	clear(o.selectors)
	for i := range o.topology {
		o.topology[i].dsts = o.topology[i].dsts[:0]
	}
	clear(o.dup)
	o.dupLog, o.dupHead = o.dupLog[:0], 0
	o.clearRoutes()
	o.dirty = false
	o.queue.reset()
}

// WalkHeldControl implements routing.HeldControlWalker: messages sitting
// in the jitter queue have been counted as initiated (or are relayed
// floods) but have not reached SendControl yet, so the conformance
// control ledger must see them as held rather than vanished.
func (o *OLSR) WalkHeldControl(fn func(metrics.ControlKind)) {
	for _, msg := range o.queue.queue {
		fn(msg.Kind())
	}
}

// --- periodic emission ---

func (o *OLSR) sendHello() {
	if o.stopped {
		return
	}
	o.recomputeMPRs()
	h := o.helloPool.Get()
	neighbors := h.Neighbors
	*h = Hello{Origin: o.node.ID(), Neighbors: neighbors[:0]}
	for id, l := range o.links {
		code := LinkAsym
		switch {
		case l.symmetric && l.isMPR:
			code = LinkMPR
		case l.symmetric:
			code = LinkSym
		}
		h.Neighbors = append(h.Neighbors, HelloNeighbor{ID: id, Code: code})
	}
	slices.SortFunc(h.Neighbors, func(a, b HelloNeighbor) int { return cmp.Compare(a.ID, b.ID) })
	o.node.Metrics().CountControlInitiate(metrics.Hello)
	o.queue.push(h)
	o.helloTimer = o.node.Schedule(o.cfg.HelloInterval, o.sendHello)
}

func (o *OLSR) sendTC() {
	if o.stopped {
		return
	}
	if len(o.selectors) > 0 {
		o.msgSeq++
		tc := o.tcPool.Get()
		selectors := tc.Selectors
		*tc = TC{
			Origin:    o.node.ID(),
			Seq:       o.msgSeq,
			ANSN:      o.ansn,
			TTL:       o.cfg.NetDiameter,
			Selectors: selectors[:0],
		}
		for id := range o.selectors {
			tc.Selectors = append(tc.Selectors, id)
		}
		slices.Sort(tc.Selectors)
		o.node.Metrics().CountControlInitiate(metrics.TC)
		o.queue.push(tc)
	}
	o.tcTimer = o.node.Schedule(o.cfg.TCInterval, o.sendTC)
}

// sweep expires links, two-hop tuples, selectors, topology, and duplicate
// entries once per second.
func (o *OLSR) sweep() {
	if o.stopped {
		return
	}
	o.expire(o.node.Now())
	o.sweeper = o.node.Schedule(time.Second, o.sweep)
}

// expire drops every tuple whose expiry is at or before now.
func (o *OLSR) expire(now time.Duration) {
	for id, l := range o.links {
		if l.expiry <= now {
			o.dropLink(id)
		}
	}
	for n, set := range o.twoHop {
		kept := set[:0]
		for _, th := range set {
			if th.expiry > now {
				kept = append(kept, th)
			}
		}
		if len(kept) < len(set) {
			o.twoHop[n] = kept
			o.dirty = true
		}
	}
	for id, exp := range o.selectors {
		if exp <= now {
			delete(o.selectors, id)
			o.ansn++
		}
	}
	for i := range o.topology {
		if ts := &o.topology[i]; len(ts.dsts) > 0 && ts.expiry <= now {
			ts.dsts = ts.dsts[:0]
			o.dirty = true
		}
	}
	// A refreshed key has a later entry further down the log, so only
	// an entry that still carries the key's current expiry deletes it.
	for o.dupHead < len(o.dupLog) && o.dupLog[o.dupHead].expiry <= now {
		e := o.dupLog[o.dupHead]
		o.dupHead++
		if exp, ok := o.dup[e.key]; ok && exp == e.expiry {
			delete(o.dup, e.key)
		}
	}
	if o.dupHead > len(o.dupLog)/2 {
		n := copy(o.dupLog, o.dupLog[o.dupHead:])
		o.dupLog, o.dupHead = o.dupLog[:n], 0
	}
}

// dropLink forgets a neighbor and the two-hop tuples it advertised.
func (o *OLSR) dropLink(id routing.NodeID) {
	delete(o.links, id)
	if int(id) < len(o.twoHop) {
		o.twoHop[id] = o.twoHop[id][:0]
	}
	o.dirty = true
}

// --- control plane ---

// HandleControl implements routing.Protocol.
func (o *OLSR) HandleControl(from routing.NodeID, msg routing.Message) {
	if o.stopped {
		return
	}
	// The wire path delivers pooled pointer messages (read-only, valid
	// only during the call); tests and the adversary layer may still hand
	// in plain values.
	switch m := msg.(type) {
	case *Hello:
		o.handleHello(from, *m)
	case Hello:
		o.handleHello(from, m)
	case *TC:
		o.handleTC(from, *m)
	case TC:
		o.handleTC(from, m)
	}
}

func (o *OLSR) handleHello(from routing.NodeID, h Hello) {
	now := o.node.Now()
	me := o.node.ID()

	l := o.links[from]
	if l == nil {
		l = &linkState{}
		o.links[from] = l
		o.dirty = true
	}
	l.expiry = now + o.cfg.NeighborHold

	heardUs := false
	selectedUs := false
	for _, n := range h.Neighbors {
		if n.ID == me {
			heardUs = true
			selectedUs = n.Code == LinkMPR
		}
	}
	if heardUs != l.symmetric {
		l.symmetric = heardUs
		o.dirty = true
	}

	if selectedUs {
		if _, ok := o.selectors[from]; !ok {
			o.ansn++
		}
		o.selectors[from] = now + o.cfg.NeighborHold
	} else if _, ok := o.selectors[from]; ok {
		delete(o.selectors, from)
		o.ansn++
	}

	// Two-hop neighborhood: symmetric neighbors of a symmetric neighbor.
	if l.symmetric {
		o.twoHop = grow(o.twoHop, from)
		set := o.twoHop[from]
		for _, n := range h.Neighbors {
			if n.ID == me || n.Code == LinkAsym {
				continue
			}
			i := slices.IndexFunc(set, func(th twoHopTuple) bool { return th.id == n.ID })
			if i < 0 {
				i = len(set)
				set = append(set, twoHopTuple{id: n.ID})
				o.dirty = true
			}
			set[i].expiry = now + o.cfg.NeighborHold
		}
		o.twoHop[from] = set
	}
}

func (o *OLSR) handleTC(from routing.NodeID, tc TC) {
	me := o.node.ID()
	if tc.Origin == me {
		return
	}
	now := o.node.Now()

	// Only process TCs arriving over a symmetric link (RFC 3626 §9.2).
	l := o.links[from]
	if l == nil || !l.symmetric {
		return
	}

	key := dupKey{origin: tc.Origin, seq: tc.Seq}
	_, isDup := o.dup[key]
	o.dup[key] = now + o.cfg.DupHold
	o.dupLog = append(o.dupLog, dupEntry{key: key, expiry: now + o.cfg.DupHold})

	if !isDup {
		// Discard stale information per ANSN (RFC 3626 §9.5): the
		// origin's own tuples, those with T_last_addr == origin, hold
		// the ANSN a fresh TC must not be older than.
		o.topology = grow(o.topology, tc.Origin)
		ts := &o.topology[tc.Origin]
		if len(ts.dsts) == 0 || !seqGreater(ts.ansn, tc.ANSN) {
			// Replace the origin's advertised set.
			ts.ansn = tc.ANSN
			ts.expiry = now + o.cfg.TopologyHold
			ts.dsts = ts.dsts[:0]
			for _, sel := range tc.Selectors {
				if sel != me {
					ts.dsts = append(ts.dsts, sel)
				}
			}
			o.dirty = true
		}
	}

	// MPR forwarding: relay only if the sender selected us as MPR.
	if isDup || tc.TTL <= 1 {
		return
	}
	if _, selected := o.selectors[from]; !selected {
		return
	}
	// The incoming tc's Selectors alias the sender's pooled message, which
	// is recycled once its frame completes; the jitter queue outlives that,
	// so the relayed copy must own its selector list.
	fwd := o.tcPool.Get()
	selectors := fwd.Selectors
	*fwd = tc
	fwd.Selectors = append(selectors[:0], tc.Selectors...)
	fwd.TTL--
	o.queue.pushForward(fwd)
}

// RecycleMessage implements routing.MessageRecycler.
func (o *OLSR) RecycleMessage(msg routing.Message) {
	switch m := msg.(type) {
	case *Hello:
		m.Neighbors = m.Neighbors[:0]
		o.helloPool.Put(m)
	case *TC:
		m.Selectors = m.Selectors[:0]
		o.tcPool.Put(m)
	}
}

// grow extends s with zero values until id is a valid index.
func grow[T any](s []T, id routing.NodeID) []T {
	if n := int(id) + 1; n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// seqGreater compares 16-bit sequence numbers with wraparound.
func seqGreater(a, b uint16) bool {
	return (a > b && a-b <= 32768) || (a < b && b-a > 32768)
}

// --- MPR selection ---

// recomputeMPRs runs the greedy RFC 3626 §8.3.1 heuristic: first take
// neighbors that are the sole reach to some two-hop node, then repeatedly
// take the neighbor covering the most uncovered two-hop nodes, ties to
// the lowest ID, so the result does not depend on iteration order.
func (o *OLSR) recomputeMPRs() {
	now := o.node.Now()
	me := o.node.ID()
	m := &o.mpr
	m.cands, m.reach = m.cands[:0], m.reach[:0]
	// Strict two-hop nodes (not me, not a symmetric neighbor) per
	// candidate; count[th] is how many candidates reach th.
	uncovered := 0
	for n, l := range o.links {
		if !l.symmetric || int(n) >= len(o.twoHop) {
			continue
		}
		lo := len(m.reach)
		for _, th := range o.twoHop[n] {
			if th.expiry <= now || th.id == me {
				continue
			}
			if ln, direct := o.links[th.id]; direct && ln.symmetric {
				continue
			}
			m.reach = append(m.reach, th.id)
			m.count = grow(m.count, th.id)
			if m.count[th.id]++; m.count[th.id] == 1 {
				uncovered++
			}
		}
		if len(m.reach) > lo {
			m.cands = append(m.cands, mprCand{id: n, lo: lo, hi: len(m.reach)})
		}
	}
	// Mandatory: sole providers. Covering zeroes count, so it is read
	// for every candidate before any is covered.
	for i := range m.cands {
		c := &m.cands[i]
		for _, th := range m.reach[c.lo:c.hi] {
			if m.count[th] == 1 {
				c.mpr = true
				break
			}
		}
	}
	for i := range m.cands {
		if m.cands[i].mpr {
			uncovered -= m.cover(i)
		}
	}
	// Greedy: highest coverage first; ties broken by lowest ID.
	for uncovered > 0 {
		best, bestCount := -1, 0
		for i, c := range m.cands {
			if c.mpr {
				continue
			}
			n := 0
			for _, th := range m.reach[c.lo:c.hi] {
				if m.count[th] > 0 {
					n++
				}
			}
			if n > bestCount || (n == bestCount && n > 0 && c.id < m.cands[best].id) {
				best, bestCount = i, n
			}
		}
		if best < 0 {
			break
		}
		m.cands[best].mpr = true
		uncovered -= m.cover(best)
	}
	for _, th := range m.reach {
		m.count[th] = 0
	}
	for _, l := range o.links {
		l.isMPR = false
	}
	for _, c := range m.cands {
		if c.mpr {
			o.links[c.id].isMPR = true
		}
	}
}

// cover marks candidate i's two-hop nodes covered and returns how many
// were not covered before.
func (m *mprScratch) cover(i int) int {
	n := 0
	c := m.cands[i]
	for _, th := range m.reach[c.lo:c.hi] {
		if m.count[th] > 0 {
			m.count[th] = 0
			n++
		}
	}
	return n
}

// --- routing table (shortest path over the partial topology graph) ---

// recompute rebuilds the routing table with a hop-count BFS over:
// symmetric links, two-hop tuples, and TC topology edges.
//
// Expansion order must not depend on map iteration order: equal-cost
// destinations keep whichever first hop the BFS reaches first, and a
// run-to-run change there changes forwarding (and so the whole
// simulation). The seeds, one per first hop, enter the queue in NodeID
// order. Every node a queued node reaches inherits its first hop, so
// each depth of the queue is a run of groups sharing a first hop, in
// seed order, and the order inside a group decides nothing: a target
// takes the first hop of the first group that reaches it either way.
// Targets are therefore queued in tuple order, unsorted.
func (o *OLSR) recompute() {
	now := o.node.Now()
	me := o.node.ID()
	o.clearRoutes()
	for n, l := range o.links {
		if l.symmetric {
			o.reach(n, n, 1)
		}
	}
	slices.Sort(o.order)
	for head := 0; head < len(o.order); head++ {
		cur := o.order[head]
		next, dist := o.routes[cur].next, o.routes[cur].hops+1
		// Two-hop tuples extend one hop past direct neighbors.
		if int(cur) < len(o.twoHop) {
			for _, th := range o.twoHop[cur] {
				if th.expiry > now && th.id != me {
					o.reach(th.id, next, dist)
				}
			}
		}
		// Topology tuples: edges from cur as a TC origin.
		if int(cur) < len(o.topology) {
			if ts := &o.topology[cur]; ts.expiry > now {
				for _, dst := range ts.dsts {
					if dst != me {
						o.reach(dst, next, dist)
					}
				}
			}
		}
	}
}

// reach routes dst via next at dist hops and queues it, unless it is
// already routed.
func (o *OLSR) reach(dst, next routing.NodeID, dist int) {
	o.routes = grow(o.routes, dst)
	if o.routes[dst].hops != 0 {
		return
	}
	o.routes[dst] = route{next: next, hops: dist}
	o.order = append(o.order, dst)
}

// clearRoutes empties the routing table.
func (o *OLSR) clearRoutes() {
	for _, d := range o.order {
		o.routes[d] = route{}
	}
	o.order = o.order[:0]
}

// lookup returns the route toward dst, whose hops is 0 if there is none.
func (o *OLSR) lookup(dst routing.NodeID) route {
	if dst < 0 || int(dst) >= len(o.routes) {
		return route{}
	}
	return o.routes[dst]
}

// --- data plane ---

// Originate implements routing.Protocol.
func (o *OLSR) Originate(pkt *routing.DataPacket) { o.forward(pkt) }

// HandleData implements routing.Protocol.
func (o *OLSR) HandleData(_ routing.NodeID, pkt *routing.DataPacket) {
	if pkt.Dst == o.node.ID() {
		o.node.DeliverLocal(pkt)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		o.node.DropData(pkt, routing.DropTTL)
		return
	}
	o.forward(pkt)
}

func (o *OLSR) forward(pkt *routing.DataPacket) {
	if o.dirty {
		o.recompute()
		o.dirty = false
	}
	r := o.lookup(pkt.Dst)
	if r.hops == 0 {
		o.node.DropData(pkt, routing.DropNoRoute)
		return
	}
	o.node.SendData(r.next, pkt)
}

// DataFailed implements routing.DataFailureHandler. Retried distinguishes
// the two failure stages that used to be chained closures: a first failure
// runs route maintenance, a failure of the retry drops the packet.
func (o *OLSR) DataFailed(next routing.NodeID, pkt *routing.DataPacket) {
	if pkt.Retried {
		o.node.DropData(pkt, routing.DropLinkBreak)
		return
	}
	if o.stopped {
		return
	}
	o.linkFailure(next, pkt)
}

// linkFailure drops the link immediately rather than waiting out the
// HELLO hold time, then retries the packet once over a recomputed table.
func (o *OLSR) linkFailure(next routing.NodeID, pkt *routing.DataPacket) {
	o.dropLink(next)
	o.recompute()
	o.dirty = false
	if alt := o.lookup(pkt.Dst); alt.hops != 0 && alt.next != next {
		pkt.Retried = true
		o.node.SendData(alt.next, pkt)
		return
	}
	o.node.DropData(pkt, routing.DropLinkBreak)
}

// --- observability ---

// SnapshotTable implements routing.TableSnapshotter.
func (o *OLSR) SnapshotTable() []routing.RouteEntry {
	return o.AppendTable(make([]routing.RouteEntry, 0, len(o.order)))
}

// AppendTable implements routing.TableAppender. Entries come in BFS
// order. An observer recomputes a stale table but leaves dirty set, so
// the next forward recomputes at its own instant, with the tuples that
// have lapsed since: auditing must not change what a run forwards.
func (o *OLSR) AppendTable(out []routing.RouteEntry) []routing.RouteEntry {
	if o.dirty {
		o.recompute()
	}
	for _, dst := range o.order {
		r := o.routes[dst]
		out = append(out, routing.RouteEntry{Dst: dst, Next: r.next, Metric: r.hops, Valid: true})
	}
	return out
}

// RouteTo exposes (next hop, hop count, ok) for tests and examples; like
// AppendTable it leaves dirty as it found it.
func (o *OLSR) RouteTo(dst routing.NodeID) (routing.NodeID, int, bool) {
	if o.dirty {
		o.recompute()
	}
	r := o.lookup(dst)
	return r.next, r.hops, r.hops != 0
}

// MPRs returns the node's currently selected multipoint relays in ID
// order (tests).
func (o *OLSR) MPRs() []routing.NodeID {
	var out []routing.NodeID
	for n, l := range o.links {
		if l.isMPR {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

// --- the paper's FIFO jitter queue ---

// jitterQueue spaces broadcast control transmissions by a uniform jitter
// while preserving FIFO order (§4: "We introduce a new FIFO jitter queue
// to OLSR... adds a uniformly chosen inter-packet jitter between 0 and
// 15 ms and maintains FIFO packet order").
type jitterQueue struct {
	o     *OLSR
	queue []routing.Message
	busy  bool
}

func newJitterQueue(o *OLSR, _ Config) *jitterQueue {
	return &jitterQueue{o: o}
}

// push enqueues a locally originated broadcast message.
func (q *jitterQueue) push(msg routing.Message) {
	if !q.o.cfg.JitterQueue {
		q.o.node.SendControl(routing.BroadcastID, msg, nil)
		return
	}
	q.queue = append(q.queue, msg)
	q.kick()
}

// pushForward enqueues a flooded (relayed) message; identical to push,
// named for call-site clarity.
func (q *jitterQueue) pushForward(msg routing.Message) { q.push(msg) }

func (q *jitterQueue) kick() {
	if q.busy || len(q.queue) == 0 {
		return
	}
	q.busy = true
	jitter := time.Duration(q.o.node.RNG().Float64() * float64(q.o.cfg.MaxJitter))
	q.o.node.Schedule(jitter, q.pop)
}

// reset drops all queued messages (crash path), counting each as a
// pre-transmission control drop so the conformance ledger can still
// account for every initiated packet. A pending pop event may still
// fire; it finds the queue empty, clears busy, and stops — so the flag
// is deliberately left alone here rather than cleared under it.
func (q *jitterQueue) reset() {
	for i, msg := range q.queue {
		q.o.node.Metrics().CountControlDrop(msg.Kind())
		q.o.RecycleMessage(msg)
		q.queue[i] = nil
	}
	q.queue = q.queue[:0]
}

func (q *jitterQueue) pop() {
	q.busy = false
	if q.o.stopped || len(q.queue) == 0 {
		return
	}
	msg := q.queue[0]
	q.queue[0] = nil
	q.queue = q.queue[1:]
	q.o.node.SendControl(routing.BroadcastID, msg, nil)
	q.kick()
}
