package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: github.com/manetlab/ldr/internal/sweep
cpu: Imaginary CPU @ 2.00GHz
BenchmarkSweepSerial-4          2	 612345678 ns/op	  13.1 cells/sec	 1834567 events/sec	 4096 B/op	   31 allocs/op
BenchmarkSweepWorkers4-4        8	 153086419 ns/op	  52.3 cells/sec	 7338268 events/sec	 4100 B/op	   35 allocs/op
PASS
ok  	github.com/manetlab/ldr/internal/sweep	3.211s
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Imaginary CPU @ 2.00GHz" {
		t.Fatalf("header = %+v", rep)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkSweepSerial-4" || r.Iterations != 2 {
		t.Fatalf("result 0 = %+v", r)
	}
	want := map[string]float64{
		"ns/op": 612345678, "cells/sec": 13.1, "events/sec": 1834567,
		"B/op": 4096, "allocs/op": 31,
	}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Errorf("metric %s = %v, want %v", unit, r.Metrics[unit], v)
		}
	}
}

func TestParseBenchRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX notanumber 12 ns/op",
		"BenchmarkX 5 garbage ns/op",
	} {
		if _, ok := parseBench(line); ok {
			t.Errorf("parseBench(%q) accepted malformed input", line)
		}
	}
}

// TestParseRecordsPkgPerResult: a run over several packages prints one
// `pkg:` header per package, and every result carries the package whose
// header precedes it rather than the last one printed.
func TestParseRecordsPkgPerResult(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: github.com/manetlab/ldr/internal/sweep
cpu: Imaginary CPU @ 2.00GHz
BenchmarkSweepSerial-4          2	 612345678 ns/op	 4096 B/op	   31 allocs/op
PASS
ok  	github.com/manetlab/ldr/internal/sweep	3.211s
goos: linux
goarch: amd64
pkg: github.com/manetlab/ldr/internal/radio
cpu: Imaginary CPU @ 2.00GHz
BenchmarkTransmit-4          1000	 52345 ns/op	 0 B/op	   0 allocs/op
PASS
ok  	github.com/manetlab/ldr/internal/radio	1.002s
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, pkg string }{
		{"BenchmarkSweepSerial-4", "github.com/manetlab/ldr/internal/sweep"},
		{"BenchmarkTransmit-4", "github.com/manetlab/ldr/internal/radio"},
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(want))
	}
	for i, w := range want {
		if r := rep.Results[i]; r.Name != w.name || r.Pkg != w.pkg {
			t.Errorf("result %d = %s in %q, want %s in %q", i, r.Name, r.Pkg, w.name, w.pkg)
		}
	}
}

// TestCompareMatchesPackage: the gate compares a result with the
// baseline entry of the same package and name, and falls back to the
// name alone for baseline entries that carry no package.
func TestCompareMatchesPackage(t *testing.T) {
	res := func(pkg string, allocs float64) Result {
		return Result{Name: "BenchmarkX", Pkg: pkg, Metrics: map[string]float64{"allocs/op": allocs}}
	}
	cur := &Report{Results: []Result{res("a", 200)}}
	if got, n := compare(&Report{Results: []Result{res("b", 100)}}, cur, 10); len(got) != 0 || n != 0 {
		t.Errorf("compared across packages: %v (%d pairs)", got, n)
	}
	if got, _ := compare(&Report{Results: []Result{res("b", 100), res("a", 100)}}, cur, 10); len(got) != 1 {
		t.Errorf("same package and name: %d regressions, want 1", len(got))
	}
	if got, _ := compare(&Report{Results: []Result{res("", 100)}}, cur, 10); len(got) != 1 {
		t.Errorf("package-less baseline: %d regressions, want 1", len(got))
	}
}

// TestCompareIgnoresProcsSuffix: a baseline recorded with GOMAXPROCS=1
// (no suffix) gates a run on a 2-CPU host (-2 suffix), and the number
// of compared pairs says whether the gate saw anything at all.
func TestCompareIgnoresProcsSuffix(t *testing.T) {
	res := func(name string, bytes, allocs float64) Result {
		return Result{Name: name, Metrics: map[string]float64{"B/op": bytes, "allocs/op": allocs, "ns/op": 1}}
	}
	base := &Report{Results: []Result{res("BenchmarkCheckLDRLine3", 1000, 10), res("BenchmarkX/case-a", 100, 1)}}
	cur := &Report{Results: []Result{res("BenchmarkCheckLDRLine3-2", 2000, 10), res("BenchmarkX/case-a-2", 100, 1)}}
	got, n := compare(base, cur, 10)
	if n != 4 {
		t.Errorf("compared %d pairs, want 4", n)
	}
	if len(got) != 1 {
		t.Errorf("regressions = %v, want the B/op growth of BenchmarkCheckLDRLine3-2", got)
	}
	if _, n := compare(base, &Report{Results: []Result{res("BenchmarkOther-2", 1, 1)}}, 10); n != 0 {
		t.Errorf("unrelated result compared %d pairs, want 0", n)
	}
	for in, want := range map[string]string{
		"BenchmarkX-2": "BenchmarkX", "BenchmarkX-16": "BenchmarkX", "BenchmarkX": "BenchmarkX",
		"BenchmarkX/case-a": "BenchmarkX/case-a", "BenchmarkX-": "BenchmarkX-",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}
