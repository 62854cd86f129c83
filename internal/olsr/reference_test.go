package olsr

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/radio"
	"github.com/manetlab/ldr/internal/routing"
)

// refOLSR is the map-based link state and route/MPR computation OLSR
// used before topology was indexed by TC origin, kept as an oracle:
// topology is dest → lastHop → tuple, two-hop sets are maps, and every
// computation builds fresh maps. It mirrors only the state that routes
// and MPRs depend on.
type refOLSR struct {
	me       routing.NodeID
	cfg      Config
	links    map[routing.NodeID]*linkState
	twoHop   map[routing.NodeID]map[routing.NodeID]time.Duration
	topology map[routing.NodeID]map[routing.NodeID]refTuple
	dup      map[dupKey]time.Duration
}

type refTuple struct {
	ansn   uint16
	expiry time.Duration
}

func newRef(me routing.NodeID, cfg Config) *refOLSR {
	return &refOLSR{
		me:       me,
		cfg:      cfg,
		links:    make(map[routing.NodeID]*linkState),
		twoHop:   make(map[routing.NodeID]map[routing.NodeID]time.Duration),
		topology: make(map[routing.NodeID]map[routing.NodeID]refTuple),
		dup:      make(map[dupKey]time.Duration),
	}
}

func (r *refOLSR) hello(now time.Duration, from routing.NodeID, h Hello) {
	l := r.links[from]
	if l == nil {
		l = &linkState{}
		r.links[from] = l
	}
	l.expiry = now + r.cfg.NeighborHold
	l.symmetric = false
	for _, n := range h.Neighbors {
		if n.ID == r.me {
			l.symmetric = true
		}
	}
	if !l.symmetric {
		return
	}
	set := r.twoHop[from]
	if set == nil {
		set = make(map[routing.NodeID]time.Duration)
		r.twoHop[from] = set
	}
	for _, n := range h.Neighbors {
		if n.ID != r.me && n.Code != LinkAsym {
			set[n.ID] = now + r.cfg.NeighborHold
		}
	}
}

func (r *refOLSR) tc(now time.Duration, from routing.NodeID, tc TC) {
	if tc.Origin == r.me {
		return
	}
	if l := r.links[from]; l == nil || !l.symmetric {
		return
	}
	key := dupKey{origin: tc.Origin, seq: tc.Seq}
	_, isDup := r.dup[key]
	r.dup[key] = now + r.cfg.DupHold
	if isDup {
		return
	}
	// RFC 3626 §9.5: stale if a tuple with T_last_addr == origin has a
	// newer ANSN.
	for _, tset := range r.topology {
		if tup, ok := tset[tc.Origin]; ok && seqGreater(tup.ansn, tc.ANSN) {
			return
		}
	}
	for dst, tset := range r.topology {
		delete(tset, tc.Origin)
		if len(tset) == 0 {
			delete(r.topology, dst)
		}
	}
	for _, sel := range tc.Selectors {
		if sel == r.me {
			continue
		}
		tset := r.topology[sel]
		if tset == nil {
			tset = make(map[routing.NodeID]refTuple)
			r.topology[sel] = tset
		}
		tset[tc.Origin] = refTuple{ansn: tc.ANSN, expiry: now + r.cfg.TopologyHold}
	}
}

func (r *refOLSR) expire(now time.Duration) {
	for id, l := range r.links {
		if l.expiry <= now {
			r.dropLink(id)
		}
	}
	for n, set := range r.twoHop {
		for th, exp := range set {
			if exp <= now {
				delete(set, th)
			}
		}
		if len(set) == 0 {
			delete(r.twoHop, n)
		}
	}
	for dst, set := range r.topology {
		for last, tup := range set {
			if tup.expiry <= now {
				delete(set, last)
			}
		}
		if len(set) == 0 {
			delete(r.topology, dst)
		}
	}
	for k, exp := range r.dup {
		if exp <= now {
			delete(r.dup, k)
		}
	}
}

func (r *refOLSR) dropLink(id routing.NodeID) {
	delete(r.links, id)
	delete(r.twoHop, id)
}

type refRoute struct {
	next routing.NodeID
	hops int
}

// routes is the old recompute: BFS that sorts every target of a node,
// seen or not, and scans every destination's tuples for edges.
func (r *refOLSR) routes(now time.Duration) map[routing.NodeID]refRoute {
	out := make(map[routing.NodeID]refRoute)
	type qe struct {
		node, next routing.NodeID
		dist       int
	}
	var queue []qe
	var neigh []routing.NodeID
	for n, l := range r.links {
		if l.symmetric {
			neigh = append(neigh, n)
		}
	}
	slices.Sort(neigh)
	for _, n := range neigh {
		out[n] = refRoute{next: n, hops: 1}
		queue = append(queue, qe{node: n, next: n, dist: 1})
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		var targets []routing.NodeID
		for th, exp := range r.twoHop[cur.node] {
			if exp > now {
				targets = append(targets, th)
			}
		}
		for dst, tset := range r.topology {
			if tup, ok := tset[cur.node]; ok && tup.expiry > now {
				targets = append(targets, dst)
			}
		}
		slices.Sort(targets)
		for _, to := range targets {
			if _, seen := out[to]; seen || to == r.me {
				continue
			}
			out[to] = refRoute{next: cur.next, hops: cur.dist + 1}
			queue = append(queue, qe{node: to, next: cur.next, dist: cur.dist + 1})
		}
	}
	return out
}

// mprs is the old recomputeMPRs over fresh maps.
func (r *refOLSR) mprs(now time.Duration) []routing.NodeID {
	uncovered := make(map[routing.NodeID]bool)
	reach := make(map[routing.NodeID][]routing.NodeID)
	for n, l := range r.links {
		if !l.symmetric {
			continue
		}
		for th, exp := range r.twoHop[n] {
			if exp <= now || th == r.me {
				continue
			}
			if ln, direct := r.links[th]; direct && ln.symmetric {
				continue
			}
			uncovered[th] = true
			reach[n] = append(reach[n], th)
		}
	}
	counts := make(map[routing.NodeID]int)
	for _, ths := range reach {
		for _, th := range ths {
			counts[th]++
		}
	}
	mpr := make(map[routing.NodeID]bool)
	for n, ths := range reach {
		for _, th := range ths {
			if counts[th] == 1 {
				mpr[n] = true
			}
		}
	}
	for n := range mpr {
		for _, th := range reach[n] {
			delete(uncovered, th)
		}
	}
	for len(uncovered) > 0 {
		best, bestCount := routing.NodeID(-1), 0
		for n, ths := range reach {
			if mpr[n] {
				continue
			}
			c := 0
			for _, th := range ths {
				if uncovered[th] {
					c++
				}
			}
			if c > bestCount || (c == bestCount && c > 0 && n < best) {
				best, bestCount = n, c
			}
		}
		if best < 0 {
			break
		}
		mpr[best] = true
		for _, th := range reach[best] {
			delete(uncovered, th)
		}
	}
	var out []routing.NodeID
	for n := range mpr {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// loneNode returns an OLSR instance on a one-node network whose timers
// never start, so only the test changes its state.
func loneNode(seed int64) (*routing.Network, *OLSR) {
	nw := routing.NewNetwork(1, mobility.Line(1, 250), radio.DefaultConfig(), mac.DefaultConfig(), seed,
		func(node *routing.Node) routing.Protocol { return New(node, DefaultConfig()) })
	return nw, nw.Nodes[0].Protocol().(*OLSR)
}

// randomHello lists a random subset of ids 0..maxID with random codes,
// in random order.
func randomHello(r *rand.Rand, from routing.NodeID, maxID int) Hello {
	h := Hello{Origin: from}
	for id := 0; id <= maxID; id++ {
		if routing.NodeID(id) != from && r.Float64() < 0.35 {
			h.Neighbors = append(h.Neighbors, HelloNeighbor{ID: routing.NodeID(id), Code: LinkCode(1 + r.Intn(3))})
		}
	}
	r.Shuffle(len(h.Neighbors), func(i, j int) { h.Neighbors[i], h.Neighbors[j] = h.Neighbors[j], h.Neighbors[i] })
	return h
}

// TestMatchesMapReference drives the indexed state and the map-based
// reference with the same random HELLO, TC, expiry and link-failure
// sequence, and after every step requires the same routes, hop counts
// and MPR set. ANSNs straddle the 16-bit wrap and sequence numbers
// repeat, so stale and duplicate TCs both occur.
func TestMatchesMapReference(t *testing.T) {
	const (
		maxID = 14
		steps = 400
	)
	for seed := int64(1); seed <= 12; seed++ {
		nw, o := loneNode(seed)
		ref := newRef(0, o.cfg)
		r := rand.New(rand.NewSource(seed))
		ansns := []uint16{0, 1, 2, 3, 4, 65533, 65534, 65535}
		at := time.Duration(0)
		for step := 0; step < steps; step++ {
			at += time.Duration(r.Int63n(int64(2500 * time.Millisecond)))
			op := r.Intn(10)
			nw.Sim.At(at, func() {
				now := o.node.Now()
				nbr := routing.NodeID(1 + r.Intn(8))
				switch {
				case op < 4:
					h := randomHello(r, nbr, maxID)
					o.HandleControl(nbr, h)
					ref.hello(now, nbr, h)
				case op < 8:
					tc := TC{
						Origin: routing.NodeID(r.Intn(maxID + 1)),
						Seq:    uint16(r.Intn(6)),
						ANSN:   ansns[r.Intn(len(ansns))],
						TTL:    1,
					}
					for id := 0; id <= maxID; id++ {
						if r.Float64() < 0.25 {
							tc.Selectors = append(tc.Selectors, routing.NodeID(id))
						}
					}
					r.Shuffle(len(tc.Selectors), func(i, j int) {
						tc.Selectors[i], tc.Selectors[j] = tc.Selectors[j], tc.Selectors[i]
					})
					o.HandleControl(nbr, tc)
					ref.tc(now, nbr, tc)
				case op < 9:
					o.expire(now)
					ref.expire(now)
				default:
					o.dropLink(nbr)
					ref.dropLink(nbr)
				}
				o.recompute()
				want := ref.routes(now)
				got := make(map[routing.NodeID]refRoute)
				for _, e := range o.AppendTable(nil) {
					got[e.Dst] = refRoute{next: e.Next, hops: e.Metric}
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: %d routes, reference has %d\ngot  %v\nwant %v",
						seed, step, len(got), len(want), got, want)
				}
				for dst, w := range want {
					if g, ok := got[dst]; !ok || g != w {
						t.Fatalf("seed %d step %d: route to %d = %+v (ok %v), reference %+v",
							seed, step, dst, g, ok, w)
					}
				}
				o.recomputeMPRs()
				if got, want := o.MPRs(), ref.mprs(now); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: MPRs %v, reference %v", seed, step, got, want)
				}
			})
		}
		nw.Sim.Run(at + time.Second)
	}
}

// TestWarmComputationDoesNotAllocate: once a node's state and scratch
// buffers have grown, recomputing routes and MPRs and expiring tuples
// allocate nothing.
func TestWarmComputationDoesNotAllocate(t *testing.T) {
	nw, o := loneNode(1)
	r := rand.New(rand.NewSource(1))
	nw.Sim.At(time.Second, func() {
		for nbr := routing.NodeID(1); nbr <= 6; nbr++ {
			h := randomHello(r, nbr, 20)
			h.Neighbors = append(h.Neighbors, HelloNeighbor{ID: 0, Code: LinkSym})
			o.HandleControl(nbr, h)
		}
		for origin := routing.NodeID(1); origin <= 20; origin++ {
			tc := TC{Origin: origin, Seq: 1, ANSN: 1, TTL: 1}
			for id := 0; id <= 20; id++ {
				if r.Float64() < 0.3 {
					tc.Selectors = append(tc.Selectors, routing.NodeID(id))
				}
			}
			o.HandleControl(1, tc)
		}
	})
	nw.Sim.Run(2 * time.Second)
	o.recompute()
	o.recomputeMPRs()
	if len(o.order) < 10 || len(o.MPRs()) == 0 {
		t.Fatalf("warm-up built %d routes and %d MPRs; the guard would measure nothing",
			len(o.order), len(o.MPRs()))
	}
	now := o.node.Now()
	for name, fn := range map[string]func(){
		"recompute":     o.recompute,
		"recomputeMPRs": o.recomputeMPRs,
		"expire":        func() { o.expire(now) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("warm %s: %.1f allocs/run, want 0", name, n)
		}
	}
}
