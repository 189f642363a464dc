package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name         string
		b            []float64
		higherBetter bool
		want         string
	}{
		{"same runs", []float64{100, 100, 101, 99, 100}, false, "unchanged"},
		{"within bound", []float64{104, 105, 104, 103, 105}, false, "unchanged"},
		{"slower", []float64{115, 116, 114, 115, 117}, false, "worse"},
		{"faster", []float64{85, 86, 84, 85, 85}, false, "better"},
		{"throughput up", []float64{115, 116, 114, 115, 117}, true, "better"},
		{"throughput down", []float64{85, 86, 84, 85, 85}, true, "worse"},
		{"noisy", []float64{80, 120, 100, 70, 130}, false, "unresolved"},
		{"noisy but every run better", []float64{60, 90, 70, 95, 65}, false, "better"},
		{"noisy but every run worse", []float64{110, 150, 120, 160, 115}, false, "worse"},
	} {
		if got := verdict(base, c.b, c.higherBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReportSets(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		dir  string
		vals []float64
	}{{"a", []float64{10, 10.2, 9.9}}, {"b", []float64{7, 7.1, 6.9}}} {
		for i, v := range set.vals {
			rep := &Report{Workload: "paper-mix", Metrics: map[string]Metric{"jobs_per_s": {v, "jobs/s"}}}
			if err := writeReport(filepath.Join(dir, set.dir, string(rune('0'+i))+".json"), rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Directories, and shell-expanded file lists, name the same two sets.
	files, _ := filepath.Glob(filepath.Join(dir, "[ab]", "*.json"))
	for _, args := range [][]string{
		{filepath.Join(dir, "a"), filepath.Join(dir, "b")},
		files,
	} {
		var out bytes.Buffer
		err := runCompare(&out, bench, args)
		if err == nil || !strings.Contains(out.String(), "worse") {
			t.Errorf("compare of a 30%% throughput drop: err %v, output\n%s", err, out.String())
		}
	}
}
