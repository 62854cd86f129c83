package radio

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/mobility"
	"github.com/manetlab/ldr/internal/sim"
)

// White-box tests of per-transmission batching: one start and one end
// event per frame, each walking the frame's receptions in candidate
// order.

// countedPayload is a Releasable payload that records its reference
// count, standing in for the MAC's pooled air frames.
type countedPayload struct{ refs int }

func (p *countedPayload) Ref()   { p.refs++ }
func (p *countedPayload) Unref() { p.refs-- }

// batchRig is a static medium recording every delivery in call order.
type batchRig struct {
	s     *sim.Simulator
	m     *Medium
	order []int // receiving node per delivery, in callback order
	got   map[int][]any
}

func newBatchRig(pts []mobility.Point) *batchRig {
	s := sim.New()
	r := &batchRig{s: s, m: New(s, mobility.NewStatic(pts), DefaultConfig()), got: map[int][]any{}}
	for i := range pts {
		i := i
		r.m.Attach(i, func(_ int, payload any) {
			r.order = append(r.order, i)
			r.got[i] = append(r.got[i], payload)
		})
	}
	return r
}

// scattered places k receivers within decodable range of node 0, which
// sits on a grid-cell corner (the default cell is 600 m), at varied
// offsets in both axes, so the receivers fall into four grid cells in an
// order unrelated to their ids.
func scattered(k int) []mobility.Point {
	pts := []mobility.Point{{X: 600, Y: 600}}
	for i := 1; i <= k; i++ {
		dx := float64((i*73)%380) - 190
		dy := float64((i*151)%380) - 190
		pts = append(pts, mobility.Point{X: 600 + dx*0.7, Y: 600 + dy*0.7})
	}
	return pts
}

// TestBroadcastDeliversInCandidateOrder: the receivers of one frame see
// their callbacks in the grid's candidate order, the order in which the
// per-reception end events fired before batching.
func TestBroadcastDeliversInCandidateOrder(t *testing.T) {
	const k = 12
	r := newBatchRig(scattered(k))
	r.s.Schedule(0, func() { r.m.Transmit(0, 1000, "frame") })
	r.s.RunAll()

	var want []int
	src := r.m.position(0)
	for _, c := range r.m.grid.appendCandidates(src, nil) {
		if i := int(c); i != 0 && src.Dist(r.m.position(i)) <= r.m.txRange[0] {
			want = append(want, i)
		}
	}
	if len(want) != k {
		t.Fatalf("layout puts %d receivers in range, want %d", len(want), k)
	}
	if len(r.order) != k {
		t.Fatalf("delivered to %d receivers, want %d", len(r.order), k)
	}
	sorted := true
	for i := range want {
		if r.order[i] != want[i] {
			t.Fatalf("delivery order %v, want candidate order %v", r.order, want)
		}
		if i > 0 && want[i] < want[i-1] {
			sorted = false
		}
	}
	if sorted {
		t.Fatal("candidate order is id order; the layout does not test ordering")
	}
}

// TestReleasableRefcountReturnsToZero: the medium holds one payload
// reference per reception while the frame is on the air and drops every
// one of them by the end event.
func TestReleasableRefcountReturnsToZero(t *testing.T) {
	const k = 5
	r := newBatchRig(scattered(k))
	p := &countedPayload{}
	air := r.m.AirTime(1000)
	r.s.Schedule(0, func() { r.m.Transmit(0, 1000, p) })
	r.s.Schedule(air/2, func() {
		if p.refs != k {
			t.Errorf("mid-frame refs = %d, want one per reception (%d)", p.refs, k)
		}
	})
	r.s.RunAll()
	if p.refs != 0 {
		t.Fatalf("refs = %d after the end event, want 0", p.refs)
	}
	if len(r.order) != k {
		t.Fatalf("delivered %d copies, want %d", len(r.order), k)
	}
	if r.m.txPool.Len() != 1 {
		t.Fatalf("transmission pool holds %d, want the one recycled transmission", r.m.txPool.Len())
	}
}

// TestOverlapCorruptsOnlyOverlappedReceptions: a second frame starting
// while the first is on the air corrupts the first frame's receptions at
// nodes inside its carrier-sense range and no others.
func TestOverlapCorruptsOnlyOverlappedReceptions(t *testing.T) {
	// Node 0 at the origin reaches 1 (-200 m), 2 (+200 m) and 3 (-100 m).
	// Node 4 at +700 m senses out to 550 m: node 2 only.
	r := newBatchRig([]mobility.Point{{X: 0}, {X: -200}, {X: 200}, {X: -100}, {X: 700}})
	r.s.Schedule(0, func() { r.m.Transmit(0, 2000, "a") })
	r.s.Schedule(300*time.Microsecond, func() { r.m.Transmit(4, 400, "b") })
	r.s.RunAll()

	if len(r.got[1]) != 1 || len(r.got[3]) != 1 {
		t.Fatalf("receivers outside the overlap got %v and %v, want [a] each", r.got[1], r.got[3])
	}
	if len(r.got[2]) != 0 {
		t.Fatalf("overlapped receiver decoded %v", r.got[2])
	}
	if r.m.Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want exactly the one overlapped reception", r.m.Corrupted)
	}
}

// TestHaltTakesEffectAfterWholeBatch: Halt or Interrupt from one
// receiver's callback stops the run only once every receiver of the
// frame has been served; events the callbacks schedule wait for Resume.
func TestHaltTakesEffectAfterWholeBatch(t *testing.T) {
	for _, stop := range []string{"halt", "interrupt"} {
		t.Run(stop, func(t *testing.T) {
			const k = 4
			pts := scattered(k)
			s := sim.New()
			m := New(s, mobility.NewStatic(pts), DefaultConfig())
			delivered, followUps := 0, 0
			for i := range pts {
				m.Attach(i, func(int, any) {
					delivered++
					s.Schedule(0, func() { followUps++ })
					if delivered == 1 {
						if stop == "halt" {
							s.Halt()
						} else {
							s.Interrupt()
						}
					}
				})
			}
			s.Schedule(0, func() { m.Transmit(0, 1000, "frame") })
			s.Run(time.Second)
			if delivered != k || followUps != 0 {
				t.Fatalf("stopped with %d of %d receivers served and %d follow-ups run", delivered, k, followUps)
			}
			if stop == "halt" {
				s.Resume()
				s.Run(time.Second)
				if followUps != k {
					t.Fatalf("%d follow-ups after Resume, want %d", followUps, k)
				}
			}
		})
	}
}

// TestTransmitZeroAllocsWhenWarm guards the radio hot path: with warm
// event and transmission pools, putting a frame on the air and
// delivering it to every receiver allocates nothing.
func TestTransmitZeroAllocsWhenWarm(t *testing.T) {
	pts := scattered(8)
	s := sim.New()
	m := New(s, mobility.NewStatic(pts), DefaultConfig())
	delivered := 0
	for i := range pts {
		m.Attach(i, func(int, any) { delivered++ })
	}
	p := &countedPayload{}
	m.Transmit(0, 1000, p)
	s.RunAll() // warm the pools
	allocs := testing.AllocsPerRun(1000, func() {
		m.Transmit(0, 1000, p)
		s.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("Transmit plus delivery allocates %.1f/op when warm", allocs)
	}
	if delivered != 8*1002 || p.refs != 0 {
		t.Fatalf("delivered %d copies with %d refs left, want %d and 0", delivered, p.refs, 8*1002)
	}
}
