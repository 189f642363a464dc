package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable5-8         	       1	 354450557 ns/op	        26.82 pct-improvement-10tasks	294583472 B/op	 1923686 allocs/op
BenchmarkFig9             	       1	 862140826 ns/op	691441536 B/op	 4531873 allocs/op
PASS
ok  	repro	5.489s
`

func TestParseBenchText(t *testing.T) {
	snap, err := parseBenchText(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Goos != "linux" || snap.Pkg != "repro" {
		t.Fatalf("header: %+v", snap)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks", len(snap.Benchmarks))
	}
	// Sorted by name; the -8 GOMAXPROCS suffix must be stripped.
	if snap.Benchmarks[1].Name != "BenchmarkTable5" {
		t.Fatalf("name %q", snap.Benchmarks[1].Name)
	}
	b := snap.Benchmarks[1]
	if b.NsPerOp != 354450557 || b.BytesPerOp != 294583472 || b.AllocsPerOp != 1923686 {
		t.Fatalf("measures: %+v", b)
	}
	if b.Metrics["pct-improvement-10tasks"] != 26.82 {
		t.Fatalf("custom metric: %+v", b.Metrics)
	}
}

// TestParseBenchTextBestOfN pins the -count=N collapse of time: repeated
// runs of one benchmark keep the fastest ns/op (noise only adds time).
func TestParseBenchTextBestOfN(t *testing.T) {
	const repeated = `BenchmarkUpdateArchiveIncremental-8 	200	20795 ns/op	312 B/op	4 allocs/op
BenchmarkUpdateArchiveIncremental-8 	200	12543 ns/op	312 B/op	4 allocs/op
BenchmarkUpdateArchiveIncremental-8 	200	15940 ns/op	312 B/op	4 allocs/op
BenchmarkCrowding-8 	200	499 ns/op	0 B/op	0 allocs/op
`
	snap, err := parseBenchText(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 after merge", len(snap.Benchmarks))
	}
	if b := snap.Benchmarks[1]; b.NsPerOp != 12543 || b.AllocsPerOp != 4 {
		t.Fatalf("merged entry not the fastest run: %+v", b)
	}
}

// TestParseBenchTextMinPerMeasure pins the per-measure collapse: when the
// fastest count is the cold one that paid warm-up allocations, the merged
// entry still takes allocs/op and B/op from the warm counts.
func TestParseBenchTextMinPerMeasure(t *testing.T) {
	const repeated = `BenchmarkFig6b-2 	1	101000000 ns/op	5120 B/op	690 allocs/op
BenchmarkFig6b-2 	1	117000000 ns/op	3072 B/op	310 allocs/op
BenchmarkFig6b-2 	1	109000000 ns/op	3200 B/op	312 allocs/op
`
	snap, err := parseBenchText(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1 after merge", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[0]
	if b.NsPerOp != 101000000 || b.BytesPerOp != 3072 || b.AllocsPerOp != 310 {
		t.Fatalf("merged entry is not the per-measure minimum: %+v", b)
	}
}

func TestAnnotateAgainstTextBaseline(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.txt")
	if err := os.WriteFile(basePath, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	current := `BenchmarkTable5 	       1	 177225278 ns/op	147291736 B/op	  961843 allocs/op
`
	snap, err := parseBenchText(strings.NewReader(current))
	if err != nil {
		t.Fatal(err)
	}
	base, err := loadBaseline(basePath)
	if err != nil {
		t.Fatal(err)
	}
	annotate(snap, base)
	b := snap.Benchmarks[0]
	if b.Baseline == nil || b.Baseline.AllocsPerOp != 1923686 {
		t.Fatalf("baseline not attached: %+v", b)
	}
	if got := b.VsBaseline["allocs_per_op"]; got != -50.0 {
		t.Fatalf("allocs delta %v, want -50.0", got)
	}
}

func TestCompareWithinThresholds(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.txt")
	if err := os.WriteFile(basePath, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	// 5% slower, fewer allocs, plus a benchmark the baseline lacks:
	// within the default 10% bounds, and new benchmarks never fail.
	current := `BenchmarkTable5 	       1	 372173084 ns/op	294583472 B/op	 1923686 allocs/op
BenchmarkFig9 	       1	 862140826 ns/op	691441536 B/op	 4531873 allocs/op
BenchmarkNewThing 	       1	 1000 ns/op	0 B/op	 0 allocs/op
`
	var out strings.Builder
	if err := runCompare(strings.NewReader(current), &out, basePath, 10, 10); err != nil {
		t.Fatalf("unexpected gate failure: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "new    BenchmarkNewThing") {
		t.Fatalf("new benchmark not reported:\n%s", out.String())
	}
}

func TestCompareFailsOnTimeRegression(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.txt")
	if err := os.WriteFile(basePath, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	current := `BenchmarkTable5 	       1	 531675835 ns/op	294583472 B/op	 1923686 allocs/op
`
	var out strings.Builder
	err := runCompare(strings.NewReader(current), &out, basePath, 10, 10)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkTable5") {
		t.Fatalf("want time-regression failure naming BenchmarkTable5, got %v", err)
	}
	// The same run passes with a looser bound.
	if err := runCompare(strings.NewReader(current), &strings.Builder{}, basePath, 60, 10); err != nil {
		t.Fatalf("loose bound should pass: %v", err)
	}
}

func TestCompareFailsOnAllocRegression(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.txt")
	if err := os.WriteFile(basePath, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	// Time flat, allocs +20%.
	current := `BenchmarkFig9 	       1	 862140826 ns/op	691441536 B/op	 5438247 allocs/op
`
	err := runCompare(strings.NewReader(current), &strings.Builder{}, basePath, 10, 10)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkFig9") {
		t.Fatalf("want alloc-regression failure naming BenchmarkFig9, got %v", err)
	}
}

func TestCompareRequiresSharedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.txt")
	if err := os.WriteFile(basePath, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	current := `BenchmarkUnrelated 	       1	 1000 ns/op	0 B/op	 0 allocs/op
`
	if err := runCompare(strings.NewReader(current), &strings.Builder{}, basePath, 10, 10); err == nil {
		t.Fatal("want failure when no benchmarks are shared with the baseline")
	}
}

func TestLoadBaselineJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "snap.json")
	if err := run(strings.NewReader(sample), out, ""); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaseline(out)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := base["BenchmarkFig9"]; !ok || m.AllocsPerOp != 4531873 {
		t.Fatalf("round trip: %+v", base)
	}
}
