package main

import (
	"math"
	"testing"
)

// seq returns 1..n in descending order, so summarize must sort.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestSummarizeSmallSamplesReportOnlyTheMedian(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 11, 20} {
		got := summarize(seq(n))
		if got.hasTail {
			t.Errorf("n=%d: tail reported (p%.1f) with fewer than %d samples", n, got.tailPct, 2*tailBeyond+1)
		}
		if want := float64(n+1) / 2; got.p50 != want {
			t.Errorf("n=%d: median %v, want %v", n, got.p50, want)
		}
	}
	if got := summarize(nil); got.hasTail || got.p50 != 0 || got.n != 0 {
		t.Errorf("empty input: %+v", got)
	}
}

func TestSummarizeTailHasTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		tail float64
		pct  float64
	}{
		{n: 21, tail: 11, pct: 100 * 11.0 / 21},
		{n: 48, tail: 38, pct: 100 * 38.0 / 48},
		{n: 100, tail: 90, pct: 90},
		{n: 1000, tail: 990, pct: 99},
	} {
		got := summarize(seq(c.n))
		if !got.hasTail {
			t.Fatalf("n=%d: no tail", c.n)
		}
		if got.tail != c.tail || got.tailK != int(c.tail) || math.Abs(got.tailPct-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail %v (rank %d, p%.2f), want %v (p%.2f)", c.n, got.tail, got.tailK, got.tailPct, c.tail, c.pct)
		}
		if beyond := got.n - got.tailK; beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailBeyond)
		}
		if got.tail < got.p50 {
			t.Errorf("n=%d: tail %v below the median %v", c.n, got.tail, got.p50)
		}
	}
}

func TestTailIdleSumsEachWorkersWaitForTheLastCell(t *testing.T) {
	ends := []float64{1, 4, 2, 9, 7}
	if got := tailIdle(ends, 2); got != 2 {
		t.Errorf("2 workers: tail idle %v, want 2 (9-7)", got)
	}
	if got := tailIdle(ends, 3); got != 2+5 {
		t.Errorf("3 workers: tail idle %v, want 7 (9-7 + 9-4)", got)
	}
	if got := tailIdle(ends, 1); got != 0 {
		t.Errorf("1 worker: tail idle %v, want 0", got)
	}
}
