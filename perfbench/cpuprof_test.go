package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestCollapseChargesInnermostRepoFrame(t *testing.T) {
	const in = "github.com/manetlab/ldr/internal/"
	samples := []stackSample{
		// Stdlib heap code under the event queue counts as sim.
		{count: 6, stack: []string{
			"container/heap.down",
			"container/heap.Pop",
			in + "sim.(*Simulator).Step",
			in + "sim.(*Simulator).Run",
			in + "scenario.RunWithControl",
			in + "sweep.RunCells[...].func1",
		}},
		// An allocation under the model checker counts as modelcheck,
		// not as the runtime and not as the sweep further out.
		{count: 3, stack: []string{
			"runtime.mallocgc",
			"runtime.growslice",
			in + "modelcheck.(*encoder).key",
			in + "modelcheck.Check",
			in + "sweep.Each.func1",
		}},
		// Inlined generic code keeps its package.
		{count: 2, stack: []string{in + "runpool.(*Pool[go.shape.struct { github.com/manetlab/ldr/internal/sim.at int64 }]).Get"}},
		// The harness's own frames.
		{count: 1, stack: []string{"runtime.memmove", "main.(*passResult).digest", "main.run"}},
		// No repository frame at all: GC and scheduler work.
		{count: 8, stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{count: 0, stack: nil},
	}
	// 20 ticks in all.
	shares := collapse(samples)
	want := map[string]float64{"sim": 0.3, "modelcheck": 0.15, "runpool": 0.1, "bench": 0.05, "runtime.other": 0.4}
	sum := 0.0
	for m, s := range shares {
		sum += s
		if math.Abs(s-want[m]) > 1e-12 {
			t.Errorf("%s: share %v, want %v", m, s, want[m])
		}
	}
	if len(shares) != len(want) {
		t.Errorf("modules %v, want %v", shares, want)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/manetlab/ldr/internal/radio.(*Medium).Transmit": "radio",
		"github.com/manetlab/ldr/internal/core.New.func1":           "core",
		"github.com/manetlab/ldr/perfbench.runPass":                 "bench",
		"main.tracedCell":                     "bench",
		"container/heap.Fix":                  "",
		"runtime.mallocgc":                    "",
		"github.com/manetlab/ldr.NewScenario": "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x += i ^ x
		}
	}
	return x
}

// TestParseCPUProfile decodes a real runtime/pprof profile and checks
// that the stacks name the function that burned the CPU.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiler unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples taken")
	}
	found := false
	for _, s := range samples {
		if s.count <= 0 {
			t.Errorf("sample with count %d", s.count)
		}
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".spinForProfile")
		}
	}
	if !found {
		t.Errorf("no sample names spinForProfile in %d samples", len(samples))
	}
	if shares := collapse(samples); shares["bench"] == 0 {
		t.Errorf("spin loop not charged to bench: %v", shares)
	}

	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}
