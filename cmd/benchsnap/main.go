// Command benchsnap converts `go test -bench` output on stdin into a
// machine-readable JSON snapshot: ns/op, B/op, allocs/op, and any custom
// b.ReportMetric units, per benchmark. With -baseline it also embeds a prior
// run (bench text or a previous snapshot JSON) and the percent change per
// measure, so the perf trajectory across PRs is diffable by tooling instead
// of eyeballed from log files.
//
// With -compare it becomes a regression gate instead: the fresh run on
// stdin is diffed against the -baseline snapshot and the command exits
// non-zero if any shared benchmark slowed down by more than -max-time-pct
// percent ns/op or grew by more than -max-alloc-pct percent allocs/op.
//
// Usage:
//
//	go test -run '^$' -bench 'Sweep|Fig|Table' -benchmem -benchtime 1x . |
//	    benchsnap -o BENCH_PR4.json [-baseline old.txt|old.json]
//
//	go test -run '^$' -bench ... -benchmem . |
//	    benchsnap -compare -baseline BENCH_PR4.json [-max-time-pct 10] [-max-alloc-pct 10]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Measure holds the three standard -benchmem measures.
type Measure struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Benchmark is one benchmark's snapshot entry.
type Benchmark struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	Measure
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Baseline   *Measure           `json:"baseline,omitempty"`
	VsBaseline map[string]float64 `json:"vs_baseline_pct,omitempty"`
}

// Snapshot is the full JSON document.
type Snapshot struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "prior run to compare against (bench text or snapshot JSON)")
	compare := flag.Bool("compare", false, "gate mode: exit non-zero when stdin regresses past the thresholds vs -baseline")
	maxTimePct := flag.Float64("max-time-pct", 10, "with -compare, max allowed ns/op increase in percent")
	maxAllocPct := flag.Float64("max-alloc-pct", 10, "with -compare, max allowed allocs/op increase in percent")
	flag.Parse()
	var err error
	if *compare {
		err = runCompare(os.Stdin, os.Stdout, *baseline, *maxTimePct, *maxAllocPct)
	} else {
		err = run(os.Stdin, *out, *baseline)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, outPath, baselinePath string) error {
	snap, err := parseBenchText(in)
	if err != nil {
		return err
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (expected `go test -bench` output)")
	}
	if baselinePath != "" {
		base, err := loadBaseline(baselinePath)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		annotate(snap, base)
	}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(outPath, blob, 0o644)
}

// runCompare diffs the fresh run on stdin against the baseline snapshot and
// fails on any shared benchmark regressing past the thresholds. Benchmarks
// present on only one side are reported but never fail the gate, so the
// baseline does not have to be refreshed in the same change that adds or
// removes a benchmark.
func runCompare(in io.Reader, w io.Writer, baselinePath string, maxTimePct, maxAllocPct float64) error {
	if baselinePath == "" {
		return fmt.Errorf("-compare requires -baseline")
	}
	snap, err := parseBenchText(in)
	if err != nil {
		return err
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (expected `go test -bench` output)")
	}
	base, err := loadBaseline(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var failures []string
	shared := 0
	for _, b := range snap.Benchmarks {
		m, ok := base[b.Name]
		if !ok {
			fmt.Fprintf(w, "  new    %-40s %12.0f ns/op (not in baseline)\n", b.Name, b.NsPerOp)
			continue
		}
		shared++
		timePct := pctChange(b.NsPerOp, m.NsPerOp)
		allocPct := pctChange(b.AllocsPerOp, m.AllocsPerOp)
		status := "ok"
		if timePct > maxTimePct || allocPct > maxAllocPct {
			status = "FAIL"
			failures = append(failures, b.Name)
		}
		fmt.Fprintf(w, "  %-6s %-40s time %+7.1f%% (%.0f -> %.0f ns/op)  allocs %+7.1f%% (%.0f -> %.0f)\n",
			status, b.Name, timePct, m.NsPerOp, b.NsPerOp, allocPct, m.AllocsPerOp, b.AllocsPerOp)
	}
	for name := range base {
		if !hasBench(snap, name) {
			fmt.Fprintf(w, "  gone   %-40s (baseline only)\n", name)
		}
	}
	if shared == 0 {
		return fmt.Errorf("no benchmarks shared with baseline %s", baselinePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past +%.0f%% time / +%.0f%% allocs vs %s: %s",
			len(failures), maxTimePct, maxAllocPct, baselinePath, strings.Join(failures, ", "))
	}
	fmt.Fprintf(w, "benchsnap: %d benchmarks within +%.0f%% time / +%.0f%% allocs of %s\n",
		shared, maxTimePct, maxAllocPct, baselinePath)
	return nil
}

// pctChange is the percent increase of cur over old; zero or missing old
// measures (e.g. a baseline captured without -benchmem) never flag.
func pctChange(cur, old float64) float64 {
	if old <= 0 {
		return 0
	}
	return 100 * (cur - old) / old
}

func hasBench(snap *Snapshot, name string) bool {
	for _, b := range snap.Benchmarks {
		if b.Name == name {
			return true
		}
	}
	return false
}

// parseBenchText reads standard testing-package benchmark output.
func parseBenchText(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			snap.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name
	})
	// Repeated runs of one benchmark (`go test -count=N`, the Makefile's
	// best-of-N noise suppression) collapse to the minimum of each measure
	// separately: scheduler preemption and VM CPU steal only ever add time,
	// and a first count that pays process-wide warm-up (plan compilation,
	// pool fills) only ever adds bytes and allocations, so each minimum is
	// the honest steady-state estimate even when the cold count happens to
	// be the fastest. Iterations and the custom metrics come from the
	// fastest run.
	merged := snap.Benchmarks[:0]
	for _, b := range snap.Benchmarks {
		n := len(merged)
		if n == 0 || merged[n-1].Name != b.Name {
			merged = append(merged, b)
			continue
		}
		m := &merged[n-1]
		bytesOp, allocsOp := min(m.BytesPerOp, b.BytesPerOp), min(m.AllocsPerOp, b.AllocsPerOp)
		if b.NsPerOp < m.NsPerOp {
			*m = b
		}
		m.BytesPerOp, m.AllocsPerOp = bytesOp, allocsOp
	}
	snap.Benchmarks = merged
	return snap, nil
}

// parseBenchLine decodes one "BenchmarkName N value unit value unit ..." row.
func parseBenchLine(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	// Strip the -GOMAXPROCS suffix so names are stable across machines.
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iterations in %q: %w", line, err)
	}
	b := Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("value %q in %q: %w", f[i], line, err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

// loadBaseline reads a prior run: a snapshot JSON (first byte '{') or raw
// `go test -bench` text.
func loadBaseline(path string) (map[string]Measure, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap *Snapshot
	if trimmed := bytes.TrimSpace(blob); len(trimmed) > 0 && trimmed[0] == '{' {
		snap = &Snapshot{}
		if err := json.Unmarshal(trimmed, snap); err != nil {
			return nil, err
		}
	} else if snap, err = parseBenchText(bytes.NewReader(blob)); err != nil {
		return nil, err
	}
	out := make(map[string]Measure, len(snap.Benchmarks))
	for _, b := range snap.Benchmarks {
		out[b.Name] = b.Measure
	}
	return out, nil
}

// annotate attaches baseline measures and percent deltas to every benchmark
// the baseline also ran (negative = improvement).
func annotate(snap *Snapshot, base map[string]Measure) {
	for i := range snap.Benchmarks {
		b := &snap.Benchmarks[i]
		m, ok := base[b.Name]
		if !ok {
			continue
		}
		b.Baseline = &m
		b.VsBaseline = map[string]float64{}
		for _, d := range []struct {
			key      string
			cur, old float64
		}{
			{"ns_per_op", b.NsPerOp, m.NsPerOp},
			{"bytes_per_op", b.BytesPerOp, m.BytesPerOp},
			{"allocs_per_op", b.AllocsPerOp, m.AllocsPerOp},
		} {
			if d.old > 0 {
				b.VsBaseline[d.key] = round1(100 * (d.cur - d.old) / d.old)
			}
		}
	}
}

func round1(v float64) float64 {
	if v < 0 {
		return float64(int64(v*10-0.5)) / 10
	}
	return float64(int64(v*10+0.5)) / 10
}
