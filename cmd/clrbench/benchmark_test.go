package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json at the repository
// root to the metric and workload tables the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(def.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range def.EndToEnd {
		if p := endToEnd[i]; m.Name != p.Name || m.Unit != p.Unit || m.Better != p.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, m, p)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("no setup_s metric")
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(def.PerLayer), len(perLayer))
	}
	for i, m := range def.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, m, perLayer[i])
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
	}
	for _, w := range def.Workloads {
		check(w.Name, "")
	}
	for _, m := range def.EndToEnd {
		check(m.Name, m.Unit)
	}
	for _, m := range def.PerLayer {
		check(m.Name, m.Unit)
	}
	if len(def.Paths) != 1 || def.Paths[0] != "cmd/clrbench" {
		t.Errorf("paths %v, want [cmd/clrbench]", def.Paths)
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", def.RunSeconds)
	}
}
