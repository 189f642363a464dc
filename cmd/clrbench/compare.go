package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func writeReport(path string, rep *Report) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// reportSets expands the -compare arguments into two sets of report
// files: two directories or quoted glob patterns, or, when the shell
// expanded the patterns, a list of files from exactly two directories.
func reportSets(args []string) (a, b []string, err error) {
	if len(args) == 2 {
		if a, err = expand(args[0]); err == nil {
			b, err = expand(args[1])
		}
		return a, b, err
	}
	var dirs []string
	byDir := make(map[string][]string)
	for _, f := range args {
		d := filepath.Dir(f)
		if _, ok := byDir[d]; !ok {
			dirs = append(dirs, d)
		}
		byDir[d] = append(byDir[d], f)
	}
	if len(dirs) != 2 {
		return nil, nil, fmt.Errorf("-compare needs two sets of reports (two directories or two patterns), got %d", len(dirs))
	}
	return byDir[dirs[0]], byDir[dirs[1]], nil
}

func expand(arg string) ([]string, error) {
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		arg = filepath.Join(arg, "*.json")
	}
	files, err := filepath.Glob(arg)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no reports match %s", arg)
	}
	return files, nil
}

func loadReports(files []string) ([]*Report, error) {
	var out []*Report
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r Report
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// values collects one metric of one workload across reports of one mode.
func values(reps []*Report, workload, metric string, traced bool) []float64 {
	var v []float64
	for _, r := range reps {
		if r.Workload == workload && r.Traced == traced {
			if m, ok := r.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// verdict judges set b against set a for one metric. A median change
// within the bound is "unchanged"; beyond it, "better" or "worse". When
// either set's interquartile spread exceeds the bound the pair is
// "unresolved", unless every run of b reads better (or every run worse)
// than every run of a.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	sa, sb := sortedCopy(a), sortedCopy(b)
	bBetter := func(x, y float64) bool { return (y > x) == higherBetter && y != x }
	if spread(a) > bound || spread(b) > bound {
		switch {
		case higherBetter && sb[0] > sa[len(sa)-1], !higherBetter && sb[len(sb)-1] < sa[0]:
			return "better"
		case higherBetter && sb[len(sb)-1] < sa[0], !higherBetter && sb[0] > sa[len(sa)-1]:
			return "worse"
		}
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	change := relChange(ma, mb)
	switch {
	case math.Abs(change) <= bound:
		return "unchanged"
	case bBetter(ma, mb):
		return "better"
	default:
		return "worse"
	}
}

// relChange is (b − a) / |a|, or 0 when both are zero.
func relChange(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

// runCompare prints, per (workload, metric) pair, each side's median and
// quartiles and, for the end-to-end metrics, the verdict against the
// bound in BENCHMARK.json. It fails when any pair is worse.
func runCompare(w io.Writer, benchFile string, args []string) error {
	blob, err := os.ReadFile(benchFile)
	if err != nil {
		return err
	}
	var def benchmarkFile
	if err := json.Unmarshal(blob, &def); err != nil {
		return fmt.Errorf("%s: %w", benchFile, err)
	}
	fa, fb, err := reportSets(args)
	if err != nil {
		return err
	}
	ra, err := loadReports(fa)
	if err != nil {
		return err
	}
	rb, err := loadReports(fb)
	if err != nil {
		return err
	}
	names := make(map[string]bool)
	for _, r := range append(append([]*Report(nil), ra...), rb...) {
		names[r.Workload] = true
	}
	var order []string
	for _, wl := range workloads {
		if names[wl.name] {
			order = append(order, wl.name)
		}
	}

	side := func(v []float64) string {
		q1, q3 := quartiles(v)
		return fmt.Sprintf("%12.6g [%.6g, %.6g] n=%d", median(v), q1, q3, len(v))
	}
	fmt.Fprintf(w, "%-13s %-28s %-7s %-40s %-40s %9s  %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	worse := 0
	for _, wl := range order {
		for _, m := range def.EndToEnd {
			a, b := values(ra, wl, m.Name, false), values(rb, wl, m.Name, false)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(a, b, m.Better == "higher", m.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-13s %-28s %-7s %-40s %-40s %8.2f%%  %s (bound %.0f%%)\n", wl, m.Name, m.Unit,
				side(a), side(b), 100*relChange(median(a), median(b)), v, 100*m.Bound)
		}
		for _, m := range def.PerLayer {
			a, b := values(ra, wl, m.Name, true), values(rb, wl, m.Name, true)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-13s %-28s %-7s %-40s %-40s %8.2f%%  per-layer\n", wl, m.Name, m.Unit,
				side(a), side(b), 100*relChange(median(a), median(b)))
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse than their bound", worse)
	}
	return nil
}
