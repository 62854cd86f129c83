package main

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/scenario"
)

// TestTracedPassReproducesDigest checks that decomposing
// scenario.RunWithControl into spans and slicing sim.Run changes no
// simulated result, on a plain cell and on a storm-audit cell.
func TestTracedPassReproducesDigest(t *testing.T) {
	const simTime = 4 * time.Second
	adv, err := adversary.Profile("storm", 20, simTime)
	if err != nil {
		t.Fatal(err)
	}
	flt, err := fault.Profile("reboot", 20, simTime)
	if err != nil {
		t.Fatal(err)
	}
	plain := scenario.Nodes50(scenario.LDR, 5, 0, 7)
	plain.Nodes, plain.SimTime = 20, simTime
	storm := scenario.Nodes50(scenario.AODV, 5, 0, 8)
	storm.Nodes, storm.SimTime = 20, simTime
	storm.AdversaryPlan, storm.FaultPlan, storm.AuditCadence = &adv, &flt, 100*time.Millisecond
	p := &plan{cfgs: []scenario.Config{plain, storm}}

	untraced, err := runPass(p, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runPass(p, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.cfgs {
		if untraced.failed[i] || traced.failed[i] {
			t.Fatalf("cell %d failed: %q / %q", i, untraced.failReason[i], traced.failReason[i])
		}
		if a, b := untraced.cells[i].Events, traced.cells[i].Events; a != b || a == 0 {
			t.Errorf("cell %d: %d events untraced, %d traced", i, a, b)
		}
		if n := len(traced.traces[i].spans); n != 5 {
			t.Errorf("cell %d: %d spans, want cell/build/start/run/report", i, n)
		}
		if traced.traces[i].queuePeak == 0 || traced.traces[i].mac.Sent == 0 {
			t.Errorf("cell %d: layer counters not sampled: %+v", i, traced.traces[i])
		}
	}
	d1, err := untraced.digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := traced.digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("traced digest %s differs from untraced %s", d2, d1)
	}
}

func TestCheckCellFlagsBrokenInvariants(t *testing.T) {
	ldr := scenario.Config{Protocol: scenario.LDR}
	aodv := scenario.Config{Protocol: scenario.AODV}
	ok := metrics.NewCollector()
	ok.NoteInitiated(0, 1)
	ok.NoteDelivered(0, 1)
	if r := checkCell(ldr, sweepCell{Collector: ok}); r != "" {
		t.Errorf("clean cell failed: %s", r)
	}

	leak := metrics.NewCollector()
	leak.DataInitiated = 1 // initiated outside the ledger: one packet unaccounted for
	if r := checkCell(ldr, sweepCell{Collector: leak}); r == "" {
		t.Error("broken conservation ledger passed")
	}

	loop := metrics.NewCollector()
	loop.LoopViolations = 1
	if r := checkCell(ldr, sweepCell{Collector: loop}); r == "" {
		t.Error("LDR loop violation passed")
	}
	if r := checkCell(aodv, sweepCell{Collector: loop}); r != "" {
		t.Errorf("AODV loop counted as a failure: %s", r)
	}
	order := metrics.NewCollector()
	order.OrderingViolations = 2
	if r := checkCell(ldr, sweepCell{Collector: order}); r == "" {
		t.Error("LDR ordering violation passed")
	}
	if r := checkCell(ldr, sweepCell{Collector: ok, Interrupted: true}); r == "" {
		t.Error("interrupted cell passed")
	}
	if r := checkCell(ldr, sweepCell{}); r == "" {
		t.Error("cell without a result passed")
	}
}
