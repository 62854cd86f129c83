// Command perfbench is the repository's benchmark. It runs one named
// workload, generated from a seed, through the program's public
// functions, checks that every result is correct, and prints every
// metric by name and unit. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload paper50 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off. With --trace 1 it runs the same cells twice in one process, first
// untraced and then traced (spans around the public calls, the event
// queue sampled between simulated-time slices, a CPU profile collapsed
// by module, runtime/metrics snapshots), checks that both passes give
// the same result digest, and prints the per-layer metrics. See
// README.md for the workloads and the metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEndUnits names every end-to-end metric an untraced run reports,
// with its unit.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"cells_per_s": "cells/s",
	"cell_s.p50":  "s",
	"cell_s.tail": "s",
	"peak_rss_mb": "MB",
}

// started is when the process started, near enough: package variables
// are initialized before main runs.
var started = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: paper50 | storm-audit | modelcheck-ldr")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 25, "approximate length of one pass on the reference host (1–600)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		root    = flag.String("root", ".", "repository root; scratch files go under <root>/.bench_build/perfbench")
	)
	flag.Parse()
	w, ok := workloads[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (have paper50, storm-audit, modelcheck-ldr)", *name)
	case *seconds < 1 || *seconds > 600:
		return fmt.Errorf("--seconds %d out of range [1, 600]", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}

	out := filepath.Join(*root, ".bench_build", "perfbench")
	base := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(base)

	rounds := w.rounds(*seconds)
	p, err := w.plan(*seed, rounds, filepath.Join(base, "journal"))
	if err != nil {
		return err
	}
	toFirstCell := time.Since(started).Seconds()
	setups := &setupTimer{w: w, seed: *seed, rounds: rounds, base: base}
	untraced, err := runPass(p, false, setups)
	if err != nil {
		return err
	}
	digest, err := untraced.digest()
	if err != nil {
		return err
	}

	report := bufio.NewWriter(os.Stdout)
	defer report.Flush()
	fmt.Fprintf(report, "workload %s  seed %d  rounds %d  cells %d  workers %d\n", w.name, *seed, rounds, p.cells(), workers)
	fmt.Fprintf(report, "host %s\n", hostCPU())
	fmt.Fprintf(report, "digest sha256:%s\n", digest)
	for i, f := range untraced.failed {
		if f {
			fmt.Fprintf(report, "FAILED cell %d: %s\n", i, untraced.failReason[i])
		}
	}

	res := result{Attempted: p.cells(), Failed: untraced.nFailed(), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0

	if *trace == 0 {
		t := summarize(untraced.timings())
		if !t.hasTail {
			return fmt.Errorf("%d cells are too few for a tail percentile", t.n)
		}
		fmt.Fprintf(report, "cell_s.tail is p%.1f: rank %d of %d cells, %d beyond it\n", t.tailPct, t.tailK, t.n, t.n-t.tailK)
		fmt.Fprintf(report, "cells_per_s and peak_rss_mb are medians over %d batch sweeps; over the whole pass %.4g cells/s, peak RSS %.4g MB\n",
			len(untraced.batchWalls), float64(p.cells())/untraced.wall, peakRSSMB())
		fmt.Fprintf(report, "setup_s is the median of %d set-ups in %d windows of %v; process start to the first cell took %.4g s\n",
			len(setups.took), len(untraced.batchWalls)+1, setupWindow, toFirstCell)
		for k, v := range map[string]float64{
			"setup_s":     medianOf(setups.took),
			"cells_per_s": medianOf(untraced.throughputs()),
			"cell_s.p50":  t.p50,
			"cell_s.tail": t.tail,
			"peak_rss_mb": medianOf(untraced.batchRSSMB),
		} {
			res.Metrics[k] = metric{v, endToEndUnits[k]}
		}
	} else {
		in, err := tracedRun(w, *seed, rounds, base, out)
		if err != nil {
			return err
		}
		in.untraced, in.openS = untraced, medianOf(setups.opens)
		tracedDigest, err := in.traced.digest()
		if err != nil {
			return err
		}
		fmt.Fprintf(report, "traced digest sha256:%s\n", tracedDigest)
		if tracedDigest != digest {
			fmt.Fprintln(report, "FAILED: the traced pass does not reproduce the untraced digest")
			res.Correct = false
		}
		res.Failed = max(res.Failed, in.traced.nFailed())
		res.Correct = res.Correct && in.traced.nFailed() == 0
		for k, v := range layerMetrics(in) {
			res.Metrics[k] = metric{v, layerUnits[k]}
		}
	}

	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(report, "  %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if *trace == 0 {
		fmt.Fprintln(report, "outcomes (reported as per-layer metrics by --trace 1):")
		o := outcomes(untraced)
		for _, k := range []string{"delivery_pct", "ctrl_per_data", "states_per_s", "fail_frac"} {
			fmt.Fprintf(report, "  %-36s %14.6g %s\n", k, o[k], layerUnits[k])
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(report, "%s\n", line)
	return report.Flush()
}

// tracedRun sets the workload up again on a fresh journal and runs the
// traced pass under the CPU profiler. It writes the pass's spans to
// <out>/trace-<workload>-seed<seed>.json once the pass has ended.
func tracedRun(w workload, seed int64, rounds int, base, out string) (layerInputs, error) {
	dir := filepath.Join(base, "journal-traced")
	p, err := w.plan(seed, rounds, dir)
	if err != nil {
		return layerInputs{}, err
	}
	var prof bytes.Buffer
	in := layerInputs{plan: p, before: readRuntimeStats()}
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return layerInputs{}, err
	}
	in.traced, err = runPass(p, true, nil)
	pprof.StopCPUProfile()
	if err != nil {
		return layerInputs{}, err
	}
	in.after = readRuntimeStats()

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return layerInputs{}, err
	}
	in.cpuShares = collapse(samples)
	if p.exec.Journal != nil {
		if in.journalBytes, err = dirBytes(dir); err != nil {
			return layerInputs{}, err
		}
	}

	var spans []span
	for _, t := range in.traced.traces {
		spans = append(spans, t.spans...)
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return layerInputs{}, err
	}
	path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	return in, os.WriteFile(path, blob, 0o644)
}

// peakRSSMB is the process's peak resident set size so far in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssEvery is how often a batch samples the resident set size.
const rssEvery = 10 * time.Millisecond

// rssSampler tracks the largest resident set size seen while it runs.
type rssSampler struct {
	done, finished chan struct{}
	peak           float64
	err            error
}

// sampleRSS starts sampling /proc/self/statm every rssEvery.
func sampleRSS() *rssSampler {
	s := &rssSampler{done: make(chan struct{}), finished: make(chan struct{})}
	go func() {
		defer close(s.finished)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				s.err = err
				return
			}
			s.peak = max(s.peak, mb)
			select {
			case <-s.done:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() (float64, error) {
	close(s.done)
	<-s.finished
	return s.peak, s.err
}

// residentMB is the process's current resident set size in MB.
func residentMB() (float64, error) {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(blob))
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q has no resident field", blob)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// hostCPU names the host's CPU model and clock from /proc/cpuinfo, so a
// reading can be matched to its host.
func hostCPU() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	var model, mhz string
	for _, line := range strings.Split(string(blob), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(v)
			}
		case "cpu MHz":
			if mhz == "" {
				mhz = strings.TrimSpace(v)
			}
		}
	}
	return fmt.Sprintf("%s @ %s MHz, %d workers", model, mhz, workers)
}
