package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent is the reference model's view of one queued event: its
// firing time and its scheduling order, the key the heap must honour.
type refEvent struct {
	at    time.Duration
	order int
	timer Timer // zero for transient events
}

// checkHeap verifies the heap shape and the index bookkeeping Cancel
// relies on.
func checkHeap(t *testing.T, q eventQueue) {
	t.Helper()
	for i, ev := range q {
		if ev.index != i {
			t.Fatalf("queue[%d].index = %d", i, ev.index)
		}
		if i > 0 && ev.before(q[(i-1)/2]) {
			t.Fatalf("queue[%d] orders before its parent", i)
		}
	}
}

// TestHeapMatchesReferenceOrdering drives the typed heap through random
// interleavings of Schedule, At, ScheduleTransient, Cancel and Step and
// checks every fired event against a reference that sorts the live set
// by (time, scheduling order). Cancels target the root, the last slot
// and middle slots, the three cases of a hole refill; firing callbacks
// schedule follow-ups at the current instant, as radio and MAC
// callbacks do.
func TestHeapMatchesReferenceOrdering(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := New()
		var live []refEvent
		order := 0
		fired := -1 // order of the last fired event

		var add func(kind int, at time.Duration)
		record := func(o int) { fired = o }
		add = func(kind int, at time.Duration) {
			o := order
			order++
			cb := func() {
				record(o)
				if r.Intn(8) == 0 {
					add(r.Intn(3), s.Now())
				}
			}
			if at < s.Now() {
				at = s.Now()
			}
			re := refEvent{at: at, order: o}
			switch kind {
			case 0:
				re.timer = s.Schedule(at-s.Now(), cb)
			case 1:
				re.timer = s.At(at, cb)
			default:
				s.ScheduleTransient(at-s.Now(), func(any, uint64) { cb() }, nil, 0)
			}
			live = append(live, re)
		}

		for op := 0; op < 2000; op++ {
			switch k := r.Intn(10); {
			case k < 4:
				// Few distinct times, so same-instant ties are common.
				add(r.Intn(3), s.Now()+time.Duration(r.Intn(4))*time.Millisecond)
			case k < 6:
				var slot int
				switch n := len(s.queue); {
				case n == 0:
					continue
				case r.Intn(3) == 0:
					slot = 0
				case r.Intn(2) == 0:
					slot = n - 1
				default:
					slot = r.Intn(n)
				}
				ev := s.queue[slot]
				i := 0
				for i < len(live) && live[i].timer.ev != ev {
					i++
				}
				if i == len(live) {
					continue // transient events have no handle
				}
				live[i].timer.Cancel()
				if live[i].timer.Pending() {
					t.Fatalf("seed %d: cancelled timer still pending", seed)
				}
				live = append(live[:i], live[i+1:]...)
			default:
				if len(live) == 0 {
					if s.Step() {
						t.Fatalf("seed %d: Step fired from an empty reference", seed)
					}
					continue
				}
				sort.SliceStable(live, func(a, b int) bool {
					if live[a].at != live[b].at {
						return live[a].at < live[b].at
					}
					return live[a].order < live[b].order
				})
				want := live[0]
				live = live[1:]
				if !s.Step() {
					t.Fatalf("seed %d: Step found no event, want order %d", seed, want.order)
				}
				if fired != want.order || s.Now() != want.at {
					t.Fatalf("seed %d: fired order %d at %v, want %d at %v", seed, fired, s.Now(), want.order, want.at)
				}
			}
			checkHeap(t, s.queue)
			if s.Pending() != len(live) {
				t.Fatalf("seed %d: Pending = %d, reference holds %d", seed, s.Pending(), len(live))
			}
		}
	}
}
