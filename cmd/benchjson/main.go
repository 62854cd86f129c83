// Command benchjson converts `go test -bench` output on stdin into a
// JSON report. Standard metrics (ns/op, B/op, allocs/op) and custom
// b.ReportMetric units (cells/sec, events/sec, ...) are all captured, so
// the sweep and radio benchmark numbers can be committed as one file:
//
//	go test -bench 'Sweep' -benchmem ./internal/sweep/ | benchjson -o BENCH_sweep.json
//
// Non-benchmark lines (ok/PASS/goos/...) are recorded as context where
// useful and otherwise ignored, so piping full `go test` output is fine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line. Pkg is the package from the most recent
// `pkg:` header before the line, so one report can span the several
// packages a `go test -bench` run covers.
type Result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole file.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	maxRegress := flag.Float64("maxregress", 0,
		"max allowed %% regression in B/op and allocs/op vs the existing -o file; >0 enables the gate (exit 1, baseline kept)")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "usage: go test -bench ... | benchjson [-o FILE] [-maxregress PCT]\n\n")
		fmt.Fprintf(w, "Convert `go test -bench` output on stdin into a JSON report. Standard\n")
		fmt.Fprintf(w, "metrics (ns/op, B/op, allocs/op) and custom b.ReportMetric units are\n")
		fmt.Fprintf(w, "all captured; non-benchmark lines are ignored.\n\n")
		fmt.Fprintf(w, "With -maxregress, the existing -o file is the committed baseline: if\n")
		fmt.Fprintf(w, "any benchmark's B/op or allocs/op grew by more than PCT%%, the baseline\n")
		fmt.Fprintf(w, "is left untouched and benchjson exits non-zero.\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(w, "\nExamples:\n")
		fmt.Fprintf(w, "  go test -bench Sweep -benchmem ./internal/sweep/ | benchjson -o BENCH_sweep.json\n")
		fmt.Fprintf(w, "  go test -bench Sweep -benchmem ./internal/sweep/ | benchjson -o BENCH_sweep.json -maxregress 10\n")
	}
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: unexpected argument %q (input is read from stdin)\n", flag.Arg(0))
		os.Exit(1)
	}
	if *maxRegress > 0 && *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -maxregress needs -o FILE as the baseline")
		os.Exit(1)
	}

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	if *maxRegress > 0 {
		if base, err := loadReport(*out); err == nil {
			if regressions := compare(base, rep, *maxRegress); len(regressions) > 0 {
				for _, r := range regressions {
					fmt.Fprintln(os.Stderr, "benchjson: regression:", r)
				}
				fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.0f%%; %s left untouched\n",
					len(regressions), *maxRegress, *out)
				os.Exit(1)
			}
		} else if !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
			os.Exit(1)
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// loadReport reads a previously written report to serve as the baseline.
func loadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare flags every benchmark present in both reports whose B/op or
// allocs/op grew by more than maxPct percent over the baseline. Benchmark
// names include the GOMAXPROCS suffix, so baselines only gate runs on
// comparable machines. Results match on package and name; a baseline
// result without a package (written before reports recorded one)
// matches on name alone.
func compare(base, cur *Report, maxPct float64) []string {
	var regressions []string
	for _, r := range cur.Results {
		var old map[string]float64
		for _, b := range base.Results {
			if b.Name == r.Name && (b.Pkg == "" || b.Pkg == r.Pkg) {
				old = b.Metrics
				break
			}
		}
		if old == nil {
			continue
		}
		for _, unit := range []string{"B/op", "allocs/op"} {
			was, okOld := old[unit]
			now, okNew := r.Metrics[unit]
			if !okOld || !okNew || was <= 0 {
				continue
			}
			if growth := (now - was) / was * 100; growth > maxPct {
				regressions = append(regressions, fmt.Sprintf(
					"%s %s %.0f -> %.0f (+%.1f%%)", r.Name, unit, was, now, growth))
			}
		}
	}
	return regressions
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseBench(line)
			if ok {
				r.Pkg = pkg
				rep.Results = append(rep.Results, r)
			}
		}
	}
	return rep, sc.Err()
}

// parseBench parses one line of the form
//
//	BenchmarkName-8   120   9843215 ns/op   1024 B/op   12 allocs/op   321.5 cells/sec
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBench(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return r, true
}
