package main

import "sort"

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: fewer make the tail one or two unlucky cells.
const tailBeyond = 10

// timing summarizes per-cell wall times.
type timing struct {
	n       int
	p50     float64
	tail    float64 // valid only when hasTail
	tailPct float64 // percentile of tail, 0–100
	tailK   int     // 1-based rank of tail in ascending order
	hasTail bool
}

// summarize reports the median and the tail of xs. The tail is the
// highest percentile with at least tailBeyond samples beyond it: the
// sample of rank n-tailBeyond. It is reported only from 2·tailBeyond+1
// samples up, where that rank reaches the median's; with fewer (in
// particular with ≤ tailBeyond, where no sample has enough beyond it)
// only the median is reported.
func summarize(xs []float64) timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := timing{n: len(s)}
	if len(s) == 0 {
		return t
	}
	t.p50 = median(s)
	if k := len(s) - tailBeyond; len(s) > 2*tailBeyond {
		t.tail, t.tailK, t.hasTail = s[k-1], k, true
		t.tailPct = 100 * float64(k) / float64(len(s))
	}
	return t
}

// median returns the median of xs, which must be sorted ascending.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}
