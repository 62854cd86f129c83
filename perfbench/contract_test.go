package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesOutput keeps ../BENCHMARK.json and the metrics
// the benchmark prints in step: same workloads, same metric names, same
// units.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for i := range names {
		if i < len(have) && names[i] != have[i] {
			t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
			break
		}
	}
	check := func(kind string, listed []entry, printed map[string]string) {
		seen := map[string]bool{}
		for _, e := range listed {
			seen[e.Name] = true
			unit, ok := printed[e.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is listed but never printed", kind, e.Name)
			case unit != e.Unit:
				t.Errorf("%s metric %s: unit %q listed, %q printed", kind, e.Name, e.Unit, unit)
			}
		}
		for name := range printed {
			if !seen[name] {
				t.Errorf("%s metric %s is printed but not listed", kind, name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, layerUnits)
}
