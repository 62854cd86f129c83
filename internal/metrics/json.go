package metrics

import (
	"encoding/json"
	"time"
)

// JSON round-tripping for journaled sweep results (internal/resilience).
//
// The collector's counters — including the unexported control ledgers,
// drop-reason array, and in-flight gauge — must survive a marshal/
// unmarshal cycle exactly, so a sweep resumed from its journal renders
// byte-identical tables: every counter is an integer, and float64 values
// (SeqnoSum) round-trip losslessly through encoding/json's shortest-form
// formatting. The one deliberate omission is the per-packet fates ledger:
// it exists to dedup terminal events during the run and is dead weight
// once the run has ended, so journaled collectors report FateNone for
// every packet.

// histogramJSON is the serialized form of LatencyHistogram.
type histogramJSON struct {
	Counts []uint64      `json:"counts"`
	Total  uint64        `json:"total"`
	Max    time.Duration `json:"max"`
}

// MarshalJSON serializes the histogram's buckets, sample count, and max.
func (h *LatencyHistogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.toJSON())
}

// UnmarshalJSON restores a histogram serialized by MarshalJSON.
func (h *LatencyHistogram) UnmarshalJSON(b []byte) error {
	var hj histogramJSON
	if err := json.Unmarshal(b, &hj); err != nil {
		return err
	}
	h.fromJSON(hj)
	return nil
}

func (h *LatencyHistogram) toJSON() histogramJSON {
	return histogramJSON{Counts: h.counts[:], Total: h.total, Max: h.maxValue}
}

func (h *LatencyHistogram) fromJSON(hj histogramJSON) {
	*h = LatencyHistogram{total: hj.Total, maxValue: hj.Max}
	copy(h.counts[:], hj.Counts)
}

// collectorJSON is the serialized form of Collector.
type collectorJSON struct {
	DataInitiated   uint64        `json:"data_initiated"`
	DataDelivered   uint64        `json:"data_delivered"`
	DataTransmitted uint64        `json:"data_transmitted"`
	DataDropped     uint64        `json:"data_dropped"`
	TotalLatency    time.Duration `json:"total_latency"`

	CtrlTransmitted []uint64 `json:"ctrl_transmitted"`
	CtrlInitiated   []uint64 `json:"ctrl_initiated"`
	CtrlDropped     []uint64 `json:"ctrl_dropped"`

	RREPUsable uint64        `json:"rrep_usable"`
	Latency    histogramJSON `json:"latency"`
	HopsSum    uint64        `json:"hops_sum"`

	SeqnoSum   float64 `json:"seqno_sum"`
	SeqnoCount uint64  `json:"seqno_count"`

	AuditSnapshots     uint64 `json:"audit_snapshots"`
	LoopViolations     uint64 `json:"loop_violations"`
	OrderingViolations uint64 `json:"ordering_violations"`

	DuplicateDeliveries uint64 `json:"duplicate_deliveries"`
	LateDrops           uint64 `json:"late_drops"`

	FeasibilityRejections uint64 `json:"feasibility_rejections"`
	RREQSuppressed        uint64 `json:"rreq_suppressed"`
	RERRSuppressed        uint64 `json:"rerr_suppressed"`

	DropByReason []uint64 `json:"drop_by_reason"`
	InFlight     int64    `json:"in_flight"`
}

// MarshalJSON serializes every counter the paper's metrics derive from,
// including the unexported control ledgers and drop-reason array. The
// per-packet fates ledger is intentionally not serialized (see the package
// comment above).
func (c *Collector) MarshalJSON() ([]byte, error) {
	return json.Marshal(collectorJSON{
		DataInitiated:   c.DataInitiated,
		DataDelivered:   c.DataDelivered,
		DataTransmitted: c.DataTransmitted,
		DataDropped:     c.DataDropped,
		TotalLatency:    c.TotalLatency,

		CtrlTransmitted: c.ctrlTransmitted[:],
		CtrlInitiated:   c.ctrlInitiated[:],
		CtrlDropped:     c.ctrlDropped[:],

		RREPUsable: c.RREPUsable,
		Latency:    c.Latency.toJSON(),
		HopsSum:    c.HopsSum,

		SeqnoSum:   c.SeqnoSum,
		SeqnoCount: c.SeqnoCount,

		AuditSnapshots:     c.AuditSnapshots,
		LoopViolations:     c.LoopViolations,
		OrderingViolations: c.OrderingViolations,

		DuplicateDeliveries: c.DuplicateDeliveries,
		LateDrops:           c.LateDrops,

		FeasibilityRejections: c.FeasibilityRejections,
		RREQSuppressed:        c.RREQSuppressed,
		RERRSuppressed:        c.RERRSuppressed,

		DropByReason: c.dropByReason[:],
		InFlight:     c.inFlight,
	})
}

// UnmarshalJSON restores a collector serialized by MarshalJSON.
func (c *Collector) UnmarshalJSON(b []byte) error {
	var cj collectorJSON
	if err := json.Unmarshal(b, &cj); err != nil {
		return err
	}
	*c = Collector{
		DataInitiated:   cj.DataInitiated,
		DataDelivered:   cj.DataDelivered,
		DataTransmitted: cj.DataTransmitted,
		DataDropped:     cj.DataDropped,
		TotalLatency:    cj.TotalLatency,

		RREPUsable: cj.RREPUsable,
		HopsSum:    cj.HopsSum,

		SeqnoSum:   cj.SeqnoSum,
		SeqnoCount: cj.SeqnoCount,

		AuditSnapshots:     cj.AuditSnapshots,
		LoopViolations:     cj.LoopViolations,
		OrderingViolations: cj.OrderingViolations,

		DuplicateDeliveries: cj.DuplicateDeliveries,
		LateDrops:           cj.LateDrops,

		FeasibilityRejections: cj.FeasibilityRejections,
		RREQSuppressed:        cj.RREQSuppressed,
		RERRSuppressed:        cj.RERRSuppressed,

		inFlight: cj.InFlight,
	}
	c.Latency.fromJSON(cj.Latency)
	copy(c.ctrlTransmitted[:], cj.CtrlTransmitted)
	copy(c.ctrlInitiated[:], cj.CtrlInitiated)
	copy(c.ctrlDropped[:], cj.CtrlDropped)
	copy(c.dropByReason[:], cj.DropByReason)
	return nil
}
