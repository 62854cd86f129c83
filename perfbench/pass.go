package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/manetlab/ldr/internal/mac"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/modelcheck"
	"github.com/manetlab/ldr/internal/scenario"
	"github.com/manetlab/ldr/internal/sweep"
)

// sweepCell is a scenario cell's result, and the sweep journal's payload.
type sweepCell struct {
	Collector   *metrics.Collector `json:"collector"`
	Events      uint64             `json:"events"`
	Interrupted bool               `json:"interrupted,omitempty"`
}

// cellTrace is what a traced pass records per cell beyond the result:
// spans around the public calls and the layer counters they expose.
type cellTrace struct {
	spans     []span
	queuePeak int
	mac       mac.Stats // summed over the cell's nodes
}

// span is one timed call: cell → build → start → run → report for a
// scenario cell, cell → check for a model-check cell. Times are seconds
// since the pass started.
type span struct {
	Cell   int     `json:"cell"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// passResult is one pass over a plan's cells.
type passResult struct {
	wall       float64   // pass wall time, journal syncs included, set-up groups not
	batchWalls []float64 // per batch sweep, wall time
	batchCells []int     // per batch sweep, cells
	batchRSSMB []float64 // per batch sweep, peak resident set size
	cellStart  []float64 // per cell, seconds since the pass started
	cellEnd    []float64
	cells      []sweepCell // scenario cells; zero when failed
	checks     []*modelcheck.Result
	failed     []bool
	failReason []string
	traces     []cellTrace // traced passes only
}

// runPass runs every cell of p once through the repository's sweep
// runner, one sweep per batch of p.batch cells. An untraced pass calls
// sweep.RunCells with the same scenario.RunWithControl call sweep.Run
// makes; a traced pass makes that call's constituent public calls
// itself, with spans around them. With setups set, the pass times a
// group of set-ups before the first batch and after each.
func runPass(p *plan, traced bool, setups *setupTimer) (*passResult, error) {
	n := p.cells()
	r := &passResult{
		cellStart:  make([]float64, n),
		cellEnd:    make([]float64, n),
		failed:     make([]bool, n),
		failReason: make([]string, n),
		cells:      make([]sweepCell, len(p.cfgs)),
		checks:     make([]*modelcheck.Result, len(p.checks)),
	}
	if traced {
		r.traces = make([]cellTrace, n)
	}
	t0 := time.Now()
	since := func() float64 { return time.Since(t0).Seconds() }
	batch := p.batch
	if batch <= 0 {
		batch = n
	}
	setupTime := 0.0
	setUp := func() error {
		if setups == nil {
			return nil
		}
		g0 := since()
		err := setups.group()
		setupTime += since() - g0
		return err
	}
	for lo := 0; lo < n; lo += batch {
		if err := setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		hi := min(lo+batch, n)
		b0 := since()
		rss := sampleRSS()
		if len(p.checks) > 0 {
			r.checkBatch(p, lo, hi, traced, since)
		} else {
			r.sweepBatch(p, lo, hi, traced, since)
		}
		peak, err := rss.stop()
		if err != nil {
			return nil, err
		}
		r.batchRSSMB = append(r.batchRSSMB, peak)
		r.batchWalls = append(r.batchWalls, since()-b0)
		r.batchCells = append(r.batchCells, hi-lo)
	}
	if err := setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.wall = since() - setupTime
	return r, nil
}

// checkBatch model-checks cells [lo, hi) across the worker pool. Cells
// record their own failures; a panic stops the batch, and every cell
// left without a result fails with it.
func (r *passResult) checkBatch(p *plan, lo, hi int, traced bool, since func() float64) {
	err := sweep.Each(hi-lo, sweep.Options{Workers: workers}, func(k int) error {
		i := lo + k
		c := p.checks[i]
		r.cellStart[i] = since()
		res, err := modelcheck.Check(&modelcheck.Scenario{Graph: c.graph, Protocol: string(scenario.LDR), Seed: c.seed}, c.opts)
		r.cellEnd[i] = since()
		if traced {
			r.traces[i].spans = []span{
				{Cell: i, Name: "cell", Start: r.cellStart[i], End: r.cellEnd[i]},
				{Cell: i, Name: "check", Parent: "cell", Start: r.cellStart[i], End: r.cellEnd[i]},
			}
		}
		switch {
		case err != nil:
			r.fail(i, err.Error())
		case res.Violation != nil:
			r.fail(i, "LDR model-check violation on "+c.graph.Name)
		case res.Truncated:
			r.fail(i, "model check truncated on "+c.graph.Name)
		}
		r.checks[i] = res
		return nil
	})
	for i := lo; i < hi; i++ {
		if r.checks[i] == nil {
			r.fail(i, fmt.Sprintf("not checked: %v", err))
		}
	}
}

// sweepBatch runs scenario cells [lo, hi) through sweep.RunCells and
// applies the per-cell correctness checks.
func (r *passResult) sweepBatch(p *plan, lo, hi int, traced bool, since func() float64) {
	cfgs := p.cfgs[lo:hi]
	cell := func(k int, ctl *scenario.Control) (sweepCell, error) {
		i := lo + k
		r.cellStart[i] = since()
		res, err := scenario.RunWithControl(cfgs[k], ctl)
		r.cellEnd[i] = since()
		if err != nil {
			return sweepCell{}, err
		}
		return sweepCell{Collector: res.Collector, Events: res.Events, Interrupted: res.Interrupted}, nil
	}
	if traced {
		cell = func(k int, ctl *scenario.Control) (sweepCell, error) {
			return tracedCell(cfgs[k], ctl, lo+k, since, r)
		}
	}
	out, err := sweep.RunCells(cfgs, sweep.Options{Workers: workers, Exec: p.exec}, cell)

	var fs sweep.Failures
	switch {
	case errors.As(err, &fs):
		for _, ce := range fs {
			r.fail(lo+ce.Index, ce.Error())
		}
	case err != nil:
		for i := lo; i < hi; i++ {
			r.fail(i, fmt.Sprintf("sweep failed: %v", err))
		}
	}
	copy(r.cells[lo:hi], out)
	for i := lo; i < hi; i++ {
		if !r.failed[i] {
			if reason := checkCell(p.cfgs[i], r.cells[i]); reason != "" {
				r.fail(i, reason)
			}
		}
	}
}

// drainTail is the settling time scenario.RunWithControl simulates past
// the configured end, so in-flight packets finish before metrics are
// read. The traced pass must advance the clock to the same instant; the
// result digest proves it does.
const drainTail = 2 * time.Second

// runSlice is the simulated-time slice a traced run advances between
// samples of the event-queue length. Stopping sim.Run at a slice
// boundary fires the same events in the same order.
const runSlice = 100 * time.Millisecond

// tracedCell is scenario.RunWithControl decomposed into its public
// calls, with a span around each and the queue sampled between slices.
func tracedCell(cfg scenario.Config, ctl *scenario.Control, i int, since func() float64, r *passResult) (sweepCell, error) {
	tr := &r.traces[i]
	c0 := since()
	r.cellStart[i] = c0
	nw, gen, _, err := scenario.BuildInstrumented(cfg)
	b1 := since()
	if err != nil {
		return sweepCell{}, err
	}
	ctl.Bind(nw.Sim)
	nw.Start()
	gen.Start()
	s1 := since()
	end := cfg.SimTime + drainTail
	for t := runSlice; ; t += runSlice {
		nw.Sim.Run(min(t, end))
		tr.queuePeak = max(tr.queuePeak, nw.Sim.Pending())
		if t >= end || nw.Sim.Interrupted() {
			break
		}
	}
	r1 := since()
	for _, n := range nw.Nodes {
		if rep, ok := n.Protocol().(scenario.SeqnoReporter); ok {
			rep.ReportSeqnos(nw.Collector)
		}
	}
	nw.Stop()
	for _, n := range nw.Nodes {
		st := n.MAC().Stats()
		tr.mac.Sent += st.Sent
		tr.mac.Acked += st.Acked
		tr.mac.Broadcast += st.Broadcast
		tr.mac.QueueDrops += st.QueueDrops
	}
	e1 := since()
	r.cellEnd[i] = e1
	tr.spans = []span{
		{Cell: i, Name: "cell", Start: c0, End: e1},
		{Cell: i, Name: "build", Parent: "cell", Start: c0, End: b1},
		{Cell: i, Name: "start", Parent: "cell", Start: b1, End: s1},
		{Cell: i, Name: "run", Parent: "cell", Start: s1, End: r1},
		{Cell: i, Name: "report", Parent: "cell", Start: r1, End: e1},
	}
	return sweepCell{Collector: nw.Collector, Events: nw.Sim.EventsFired(), Interrupted: nw.Sim.Interrupted()}, nil
}

// checkCell applies the per-cell correctness checks to a finished
// scenario cell and returns why it failed, or "". AODV loops under
// attack are the expected van Glabbeek result and are counted, not
// failed.
func checkCell(cfg scenario.Config, c sweepCell) string {
	col := c.Collector
	switch {
	case col == nil:
		return "no result"
	case c.Interrupted:
		return "interrupted"
	case col.InFlight() < 0 || col.DataInitiated != col.DataDelivered+col.DataDropped+uint64(col.InFlight()):
		return fmt.Sprintf("conservation ledger broken: initiated %d ≠ delivered %d + dropped %d + in flight %d",
			col.DataInitiated, col.DataDelivered, col.DataDropped, col.InFlight())
	case cfg.Protocol == scenario.LDR && (col.LoopViolations > 0 || col.OrderingViolations > 0):
		return fmt.Sprintf("LDR audit violations: %d loop, %d ordering", col.LoopViolations, col.OrderingViolations)
	}
	return ""
}

func (r *passResult) fail(i int, reason string) {
	if !r.failed[i] {
		r.failed[i], r.failReason[i] = true, reason
	}
}

// nFailed counts failed cells.
func (r *passResult) nFailed() int {
	n := 0
	for _, f := range r.failed {
		if f {
			n++
		}
	}
	return n
}

// digest is the sha256 of the pass's simulated results in cell order:
// each scenario cell's collector JSON after a marshal/unmarshal round
// trip, each model check's graph, seed and state, transition and depth
// counts. Event counts and every wall time are left out, so the digest
// is a function of the cell set alone and a change that only makes the
// program faster leaves it unchanged.
func (r *passResult) digest() (string, error) {
	h := sha256.New()
	for i := range r.failed {
		if r.failed[i] {
			fmt.Fprintf(h, "%d failed\n", i)
			continue
		}
		if len(r.checks) > 0 {
			c := r.checks[i]
			fmt.Fprintf(h, "%d %s %d %d %d %d\n", i, c.Scenario.Graph.Name, c.Scenario.Seed, c.States, c.Transitions, c.Depth)
			continue
		}
		blob, err := json.Marshal(r.cells[i].Collector)
		if err != nil {
			return "", err
		}
		var back metrics.Collector
		if err := json.Unmarshal(blob, &back); err != nil {
			return "", err
		}
		if blob, err = json.Marshal(&back); err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%d %s\n", i, blob)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// throughputs returns every batch's cells per second.
func (r *passResult) throughputs() []float64 {
	out := make([]float64, len(r.batchWalls))
	for b, w := range r.batchWalls {
		out[b] = float64(r.batchCells[b]) / w
	}
	return out
}

// timings returns every cell's wall time in seconds.
func (r *passResult) timings() []float64 {
	out := make([]float64, len(r.cellStart))
	for i := range out {
		out[i] = r.cellEnd[i] - r.cellStart[i]
	}
	return out
}
