package scenario_test

// Golden digests pin what a run's output *is*, not merely that it
// repeats. Every other determinism test compares one run of the code
// with another run of the same code, so none of them would notice an
// engine change that reorders same-instant events or shifts an RNG draw.
// This one compares against a committed table: the sha256 of each cell's
// collector JSON after a marshal/unmarshal round trip. Engine-internal
// cost counters (Result.Events) are not part of the collector, so a
// change that only alters event granularity leaves every digest alone.
//
// Regenerate the table with `make golden`; a change that moves a digest
// must say why.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/manetlab/ldr/internal/adversary"
	"github.com/manetlab/ldr/internal/conformance"
	"github.com/manetlab/ldr/internal/fault"
	"github.com/manetlab/ldr/internal/metrics"
	"github.com/manetlab/ldr/internal/scenario"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenSimTime keeps each matrix cell short; 5 s is long enough for
// route discovery, a reboot round and the storm's floods to happen.
const goldenSimTime = 5 * time.Second

// goldenEntry is one pinned cell. Loops is the cell's LoopViolations,
// repeated outside the digest so a moved loop count reads plainly.
type goldenEntry struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Loops  uint64 `json:"loops"`
}

// goldenCells builds the matrix: every protocol × {no fault, reboot
// fault, mayhem fault, storm adversary} on the paper's 50-node strip,
// plus the van Glabbeek AODV-loop witness replayed with its auditor.
func goldenCells(t *testing.T) ([]string, []scenario.Config) {
	t.Helper()
	var names []string
	var cfgs []scenario.Config
	for _, proto := range scenario.AllProtocols {
		for k, variant := range []string{"none", "reboot", "mayhem", "storm"} {
			cfg := scenario.Nodes50(proto, 10, 0, int64(101+k))
			cfg.SimTime = goldenSimTime
			switch variant {
			case "reboot", "mayhem":
				plan, err := fault.Profile(variant, cfg.Nodes, cfg.SimTime)
				if err != nil {
					t.Fatal(err)
				}
				cfg.FaultPlan = &plan
			case "storm":
				plan, err := adversary.Profile(variant, cfg.Nodes, cfg.SimTime)
				if err != nil {
					t.Fatal(err)
				}
				cfg.AdversaryPlan = &plan
				cfg.AuditCadence = 100 * time.Millisecond
			}
			names = append(names, fmt.Sprintf("%s/%s", proto, variant))
			cfgs = append(cfgs, cfg)
		}
	}
	spec, err := conformance.LoadSpec(filepath.FromSlash("../modelcheck/testdata/aodv-line3-loop.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, "aodv/glabbeek-loop")
	cfgs = append(cfgs, cfg)
	return names, cfgs
}

// collectorDigest hashes a collector's JSON after a round trip, the form
// a journaled sweep would render from.
func collectorDigest(c *metrics.Collector) (string, error) {
	blob, err := json.Marshal(c)
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
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

func TestGoldenDigests(t *testing.T) {
	names, cfgs := goldenCells(t)
	got := make([]goldenEntry, len(cfgs))
	for i, cfg := range cfgs {
		res, err := scenario.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		d, err := collectorDigest(res.Collector)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		got[i] = goldenEntry{Name: names[i], SHA256: d, Loops: res.Collector.LoopViolations}
	}
	if last := got[len(got)-1]; last.Loops == 0 {
		t.Errorf("%s: the witness no longer replays to a routing loop", last.Name)
	}

	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with `make golden`)", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden table has %d cells, the matrix %d (regenerate with `make golden`)", len(want), len(got))
	}
	var moved []string
	for i := range got {
		if got[i] != want[i] {
			moved = append(moved, fmt.Sprintf("%s: got %s loops=%d, want %s %s loops=%d",
				got[i].Name, got[i].SHA256[:12], got[i].Loops, want[i].Name, want[i].SHA256[:12], want[i].Loops))
		}
	}
	if len(moved) > 0 {
		t.Errorf("%d golden cells moved:\n%s", len(moved), strings.Join(moved, "\n"))
	}
}
