package scenario_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/loopcheck"
	"github.com/manetlab/ldr/internal/scenario"
)

// small returns a scaled-down mobile scenario that runs in well under a
// second, for CI-grade integration tests.
func small(proto scenario.ProtocolName, seed int64) scenario.Config {
	cfg := scenario.Nodes50(proto, 5, 0 /* constant motion */, seed)
	cfg.Nodes = 20
	cfg.SimTime = 60 * time.Second
	return cfg
}

func TestAllProtocolsDeliverUnderMobility(t *testing.T) {
	for _, proto := range []scenario.ProtocolName{
		scenario.LDR, scenario.AODV, scenario.DSR, scenario.DSR7,
		scenario.OLSR, scenario.OLSRJ,
	} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			res, err := scenario.Run(small(proto, 42))
			if err != nil {
				t.Fatal(err)
			}
			c := res.Collector
			if c.DataInitiated == 0 {
				t.Fatal("no data was initiated")
			}
			ratio := c.DeliveryRatio()
			if ratio < 0.30 {
				t.Fatalf("delivery ratio = %.2f (%d/%d), implausibly low",
					ratio, c.DataDelivered, c.DataInitiated)
			}
			t.Logf("%s: delivery=%.3f load=%.2f latency=%v events=%d",
				proto, ratio, c.NetworkLoad(), c.MeanLatency(), res.Events)
		})
	}
}

func TestLDRLoopFreeAtEveryInstant(t *testing.T) {
	cfg := small(scenario.LDR, 7)
	nw, gen, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	gen.Start()

	var violations []loopcheck.Violation
	// Check the global routing state every 100 ms of virtual time.
	var tick func()
	tick = func() {
		violations = append(violations, loopcheck.Check(nw.Nodes)...)
		if nw.Sim.Now() < cfg.SimTime && len(violations) == 0 {
			nw.Sim.Schedule(100*time.Millisecond, tick)
		}
	}
	nw.Sim.Schedule(100*time.Millisecond, tick)
	nw.Sim.Run(cfg.SimTime)

	for _, v := range violations {
		t.Error(v)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	// Every protocol, not just LDR: OLSR once diverged run-to-run because
	// its BFS next-hop choice leaked Go map iteration order.
	for _, proto := range []scenario.ProtocolName{
		scenario.LDR, scenario.AODV, scenario.DSR, scenario.DSR7,
		scenario.OLSR, scenario.OLSRJ,
	} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			a, err := scenario.Run(small(proto, 11))
			if err != nil {
				t.Fatal(err)
			}
			b, err := scenario.Run(small(proto, 11))
			if err != nil {
				t.Fatal(err)
			}
			if a.Events != b.Events ||
				a.Collector.DataDelivered != b.Collector.DataDelivered ||
				a.Collector.TotalControlTransmitted() != b.Collector.TotalControlTransmitted() {
				t.Fatalf("same seed diverged: events %d vs %d, delivered %d vs %d",
					a.Events, b.Events, a.Collector.DataDelivered, b.Collector.DataDelivered)
			}
		})
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, err := scenario.Run(small(scenario.LDR, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run(small(scenario.LDR, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Events == b.Events && a.Collector.DataDelivered == b.Collector.DataDelivered {
		t.Fatal("different seeds produced identical runs; RNG plumbing is broken")
	}
}

// TestAuditorDoesNotPerturbRuns: the continuous auditor only reads
// routing tables, so an audited run must deliver, drop and send control
// exactly like the same run unaudited. A protocol that recomputes its
// table for the auditor and then reuses that table for forwarding (as
// OLSR once did) fails here.
func TestAuditorDoesNotPerturbRuns(t *testing.T) {
	for _, proto := range scenario.AllProtocols {
		for _, seed := range []int64{7919, 31, 4242} {
			cfg := scenario.Nodes50(proto, 10, 0, seed)
			cfg.SimTime = 30 * time.Second
			plain, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.AuditCadence = 100 * time.Millisecond
			audited, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, b := plain.Collector, audited.Collector
			if b.AuditSnapshots == 0 {
				t.Fatalf("%s seed %d: auditor took no snapshots", proto, seed)
			}
			b.AuditSnapshots, b.LoopViolations, b.OrderingViolations = 0, 0, 0
			ja, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			jb, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ja, jb) {
				t.Errorf("%s seed %d: audited run differs: delivered %d vs %d, dropped %d vs %d, transmitted %d vs %d",
					proto, seed, a.DataDelivered, b.DataDelivered, a.DataDropped, b.DataDropped,
					a.DataTransmitted, b.DataTransmitted)
			}
		}
	}
}
