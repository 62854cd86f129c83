package metrics_test

import (
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/metrics"
)

func TestDerivedMetrics(t *testing.T) {
	c := metrics.NewCollector()
	c.DataInitiated = 200
	c.DataDelivered = 150
	c.TotalLatency = 150 * 20 * time.Millisecond

	for i := 0; i < 30; i++ {
		c.CountControlTransmit(metrics.RREQ)
	}
	for i := 0; i < 15; i++ {
		c.CountControlTransmit(metrics.RREP)
	}
	for i := 0; i < 5; i++ {
		c.CountControlTransmit(metrics.RERR)
	}
	for i := 0; i < 10; i++ {
		c.CountControlInitiate(metrics.RREQ)
	}
	for i := 0; i < 4; i++ {
		c.CountControlInitiate(metrics.RREP)
	}
	c.RREPUsable = 12

	if got := c.DeliveryRatio(); got != 0.75 {
		t.Fatalf("delivery = %v, want 0.75", got)
	}
	if got := c.TotalControlTransmitted(); got != 50 {
		t.Fatalf("total control = %d, want 50", got)
	}
	if got := c.NetworkLoad(); got != 50.0/150.0 {
		t.Fatalf("network load = %v", got)
	}
	if got := c.RREQLoad(); got != 30.0/150.0 {
		t.Fatalf("rreq load = %v", got)
	}
	if got := c.MeanLatency(); got != 20*time.Millisecond {
		t.Fatalf("latency = %v, want 20ms", got)
	}
	if got := c.RREPInitPerRREQ(); got != 0.4 {
		t.Fatalf("rrep init = %v, want 0.4", got)
	}
	if got := c.RREPRecvPerRREQ(); got != 1.2 {
		t.Fatalf("rrep recv = %v, want 1.2", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	c := metrics.NewCollector()
	if c.DeliveryRatio() != 0 || c.MeanLatency() != 0 ||
		c.RREPInitPerRREQ() != 0 || c.RREPRecvPerRREQ() != 0 || c.MeanSeqno() != 0 {
		t.Fatal("zero-sample metrics must be zero")
	}
	// With no delivered data, loads degrade to raw counts rather than
	// dividing by zero.
	c.CountControlTransmit(metrics.RREQ)
	if c.NetworkLoad() != 1 || c.RREQLoad() != 1 {
		t.Fatalf("loads with zero delivered: %v, %v", c.NetworkLoad(), c.RREQLoad())
	}
}

func TestSeqnoObservation(t *testing.T) {
	c := metrics.NewCollector()
	c.ObserveSeqno(2)
	c.ObserveSeqno(4)
	c.ObserveSeqno(0)
	if got := c.MeanSeqno(); got != 2 {
		t.Fatalf("mean seqno = %v, want 2", got)
	}
}

func TestUnknownKindMapsToOther(t *testing.T) {
	c := metrics.NewCollector()
	c.CountControlTransmit(metrics.ControlKind(99))
	c.CountControlTransmit(metrics.ControlKind(-1))
	if got := c.ControlTransmitted(metrics.OtherControl); got != 2 {
		t.Fatalf("other-control = %d, want 2", got)
	}
	if got := c.TotalControlTransmitted(); got != 2 {
		t.Fatalf("total = %d, want 2", got)
	}
}

func TestKindStrings(t *testing.T) {
	tests := []struct {
		k    metrics.ControlKind
		want string
	}{
		{metrics.RREQ, "RREQ"}, {metrics.RREP, "RREP"}, {metrics.RERR, "RERR"},
		{metrics.Hello, "HELLO"}, {metrics.TC, "TC"}, {metrics.OtherControl, "CTRL"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Fatalf("%d.String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

// TestFateLedgerFirstTerminalWins pins the conservation ledger's rules:
// the first terminal event of a packet counts, later ones land in the
// DuplicateDeliveries/LateDrops diagnostics, packets never initiated
// through the ledger still count, and unknown packets — on sources or
// IDs past the ledger's rows — read metrics.FateNone.
func TestFateLedgerFirstTerminalWins(t *testing.T) {
	c := metrics.NewCollector()
	if c.FateOf(3, 1) != metrics.FateNone || c.FateOf(-1, 1) != metrics.FateNone {
		t.Fatal("empty ledger reports a fate")
	}
	c.NoteInitiated(3, 1)
	c.NoteInitiated(3, 2)
	c.NoteInitiated(0, 7)
	if c.FateOf(3, 1) != metrics.FateInFlight || c.FateOf(3, 3) != metrics.FateNone || c.FateOf(1, 1) != metrics.FateNone {
		t.Fatalf("fates after initiation: %v %v %v", c.FateOf(3, 1), c.FateOf(3, 3), c.FateOf(1, 1))
	}
	if c.InFlight() != 3 {
		t.Fatalf("InFlight = %d, want 3", c.InFlight())
	}

	if !c.NoteDelivered(3, 1) || c.NoteDelivered(3, 1) {
		t.Fatal("first delivery must count and the duplicate must not")
	}
	if c.NoteDropped(3, 1, metrics.DropTTL) {
		t.Fatal("drop after delivery counted")
	}
	if !c.NoteDropped(3, 2, metrics.DropNoRoute) || c.NoteDelivered(3, 2) || c.NoteDropped(3, 2, metrics.DropTTL) {
		t.Fatal("first drop must count and every later terminal event must not")
	}
	if !c.NoteDelivered(9, 1000) {
		t.Fatal("a delivery of a packet never initiated must count")
	}

	if c.FateOf(3, 1) != metrics.FateDelivered || c.FateOf(3, 2) != metrics.FateDropped || c.FateOf(0, 7) != metrics.FateInFlight {
		t.Fatalf("fates: %v %v %v", c.FateOf(3, 1), c.FateOf(3, 2), c.FateOf(0, 7))
	}
	if c.DataDelivered != 2 || c.DataDropped != 1 || c.DuplicateDeliveries != 2 || c.LateDrops != 2 {
		t.Fatalf("delivered=%d dropped=%d dup=%d late=%d, want 2 1 2 2",
			c.DataDelivered, c.DataDropped, c.DuplicateDeliveries, c.LateDrops)
	}
	if c.DroppedBy(metrics.DropNoRoute) != 1 || c.DroppedBy(metrics.DropTTL) != 0 {
		t.Fatal("a suppressed late drop reached the drop-reason counters")
	}
	if c.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", c.InFlight())
	}
}
