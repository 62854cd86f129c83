package main

import (
	"os"
	"runtime/metrics"
	"sort"

	"github.com/manetlab/ldr/internal/scenario"
)

// cpuModules are the repository modules the CPU profile is collapsed
// into, each reported as <module>.cpu_frac: every internal package the
// benchmark reaches, plus bench (this harness's own frames).
// runtime.other_frac takes samples with no repository frame, and
// repo.other_frac any repository package not listed here, so the
// reported shares always sum to 1.
var cpuModules = []string{
	"sweep", "resilience", "scenario", "sim", "radio", "mobility", "mac",
	"routing", "core", "aodv", "dsr", "olsr", "adversary", "fault",
	"loopcheck", "metrics", "modelcheck", "conformance", "traffic", "rng",
	"runpool", "wire", "bench",
}

// runtimeStats is a runtime/metrics snapshot.
type runtimeStats struct {
	gcCPU, totalCPU    float64
	allocBytes, allocs uint64
}

func readRuntimeStats() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	var r runtimeStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[3].Value.Uint64()
	}
	return r
}

// layerInputs is everything a traced run measured.
type layerInputs struct {
	plan         *plan
	untraced     *passResult
	traced       *passResult
	cpuShares    map[string]float64
	before       runtimeStats
	after        runtimeStats
	openS        float64
	journalBytes int64
}

// layerMetrics derives the per-layer metrics of a traced run. Counts
// come from the public counters of the traced pass, times from its
// spans, CPU shares from its profile; the run's outcomes come from the
// untraced pass.
func layerMetrics(in layerInputs) map[string]float64 {
	p, tr := in.plan, in.traced
	n := float64(p.cells())
	m := outcomes(in.untraced)

	busy := 0.0
	for _, d := range tr.timings() {
		busy += d
	}
	m["sweep.busy_frac"] = busy / (float64(workers) * tr.wall)
	m["sweep.tail_idle_s"] = 0
	for lo := 0; lo < len(tr.cellEnd); lo += p.batch {
		m["sweep.tail_idle_s"] += tailIdle(tr.cellEnd[lo:min(lo+p.batch, len(tr.cellEnd))], workers)
	}

	m["resilience.open_s"] = in.openS
	m["resilience.bytes_per_cell"] = float64(in.journalBytes) / n

	var builds []float64
	var runS float64
	var events, sent, acked, bcast, qdrops uint64
	var delivered, dataTx, ctrlTx, suppressed, audits uint64
	var ldrCells, ndcRejects, aodvLoops uint64
	queuePeak := 0
	for i, c := range tr.cells {
		t := tr.traces[i]
		for _, s := range t.spans {
			switch s.Name {
			case "build":
				builds = append(builds, s.seconds())
			case "run":
				runS += s.seconds()
			}
		}
		queuePeak = max(queuePeak, t.queuePeak)
		sent += t.mac.Sent
		acked += t.mac.Acked
		bcast += t.mac.Broadcast
		qdrops += t.mac.QueueDrops
		col := c.Collector
		if col == nil {
			continue
		}
		events += c.Events
		delivered += col.DataDelivered
		dataTx += col.DataTransmitted
		ctrlTx += col.TotalControlTransmitted()
		suppressed += col.RREQSuppressed + col.RERRSuppressed
		audits += col.AuditSnapshots
		switch p.cfgs[i].Protocol {
		case scenario.LDR:
			ldrCells++
			ndcRejects += col.FeasibilityRejections
		case scenario.AODV:
			aodvLoops += col.LoopViolations
		}
	}
	m["scenario.build_s"] = medianOf(builds)
	m["sim.events_per_cell"] = float64(events) / n
	m["sim.ns_per_event"] = ratio(runS*1e9, float64(events))
	m["sim.queue_peak"] = float64(queuePeak)
	m["mac.frames_per_cell"] = float64(sent) / n
	m["mac.ack_ratio"] = ratio(float64(acked), float64(sent-bcast))
	m["mac.queue_drops_per_cell"] = float64(qdrops) / n
	m["routing.data_tx_per_delivered"] = ratio(float64(dataTx), float64(delivered))
	m["routing.ctrl_tx_per_cell"] = float64(ctrlTx) / n
	m["routing.ctrl_suppressed_per_cell"] = float64(suppressed) / n
	m["core.ndc_rejects_per_cell"] = ratio(float64(ndcRejects), float64(ldrCells))
	m["fault.audit_snapshots_per_cell"] = float64(audits) / n
	m["aodv.loop_violations"] = float64(aodvLoops)

	var states, transitions uint64
	for _, c := range tr.checks {
		if c != nil {
			states += uint64(c.States)
			transitions += uint64(c.Transitions)
		}
	}
	m["modelcheck.transitions_per_state"] = ratio(float64(transitions), float64(states))
	m["modelcheck.alloc_bytes_per_state"] = ratio(float64(in.after.allocBytes-in.before.allocBytes), float64(states))

	m["runtime.gc_cpu_frac"] = ratio(in.after.gcCPU-in.before.gcCPU, in.after.totalCPU-in.before.totalCPU)
	m["runtime.alloc_bytes_per_cell"] = float64(in.after.allocBytes-in.before.allocBytes) / n
	m["runtime.allocs_per_cell"] = float64(in.after.allocs-in.before.allocs) / n

	listed := map[string]bool{"runtime.other": true}
	for _, mod := range cpuModules {
		listed[mod] = true
		m[mod+".cpu_frac"] = in.cpuShares[mod]
	}
	m["runtime.other_frac"] = in.cpuShares["runtime.other"]
	m["repo.other_frac"] = 0
	for mod, share := range in.cpuShares {
		if !listed[mod] {
			m["repo.other_frac"] += share
		}
	}

	m["trace.overhead_frac"] = tr.wall/in.untraced.wall - 1
	return m
}

// outcomes are what a user of the program gets from a pass, beyond its
// timings: the simulated delivery ratio and control overhead over all
// scenario cells, the model checker's distinct states per second, and
// the share of cells that failed a correctness check.
func outcomes(r *passResult) map[string]float64 {
	var initiated, delivered, ctrlTx, states uint64
	for _, c := range r.cells {
		if c.Collector != nil {
			initiated += c.Collector.DataInitiated
			delivered += c.Collector.DataDelivered
			ctrlTx += c.Collector.TotalControlTransmitted()
		}
	}
	for _, c := range r.checks {
		if c != nil {
			states += uint64(c.States)
		}
	}
	return map[string]float64{
		"delivery_pct":  100 * ratio(float64(delivered), float64(initiated)),
		"ctrl_per_data": ratio(float64(ctrlTx), float64(delivered)),
		"states_per_s":  ratio(float64(states), r.wall),
		"fail_frac":     float64(r.nFailed()) / float64(len(r.failed)),
	}
}

// tailIdle is the worker time a sweep wasted at its end: the sum, over
// workers, of the time from a worker's last cell ending to the last cell
// of the sweep ending. Workers claim cells in order as they free up, so
// the workers' last cells are the cells that end last.
func tailIdle(ends []float64, workers int) float64 {
	s := append([]float64(nil), ends...)
	sort.Float64s(s)
	idle := 0.0
	for k := 1; k < workers && k < len(s); k++ {
		idle += s[len(s)-1] - s[len(s)-1-k]
	}
	return idle
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerUnits names every per-layer metric a traced run reports, with its
// unit.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"sweep.busy_frac":                  "ratio",
		"sweep.tail_idle_s":                "s",
		"resilience.open_s":                "s",
		"resilience.bytes_per_cell":        "B",
		"scenario.build_s":                 "s",
		"sim.events_per_cell":              "count",
		"sim.ns_per_event":                 "ns",
		"sim.queue_peak":                   "count",
		"mac.frames_per_cell":              "count",
		"mac.ack_ratio":                    "ratio",
		"mac.queue_drops_per_cell":         "count",
		"routing.data_tx_per_delivered":    "ratio",
		"routing.ctrl_tx_per_cell":         "count",
		"routing.ctrl_suppressed_per_cell": "count",
		"core.ndc_rejects_per_cell":        "count",
		"fault.audit_snapshots_per_cell":   "count",
		"aodv.loop_violations":             "count",
		"delivery_pct":                     "%",
		"ctrl_per_data":                    "ratio",
		"modelcheck.transitions_per_state": "ratio",
		"modelcheck.alloc_bytes_per_state": "B",
		"states_per_s":                     "1/s",
		"runtime.gc_cpu_frac":              "ratio",
		"runtime.alloc_bytes_per_cell":     "B",
		"runtime.allocs_per_cell":          "count",
		"runtime.other_frac":               "ratio",
		"repo.other_frac":                  "ratio",
		"trace.overhead_frac":              "ratio",
		"fail_frac":                        "ratio",
	}
	for _, mod := range cpuModules {
		u[mod+".cpu_frac"] = "ratio"
	}
	return u
}()
