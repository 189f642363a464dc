// Command clrbench is the repository's benchmark: four seeded workloads
// against the public entry points of service, core, tdse, relmodel,
// markov, schedule, moea and gateway, each run checked for correctness.
//
// Usage (from the repository root; run.sh builds the binary inside the
// checkout and runs it):
//
//	clrbench -workload paper-mix|ga-mapping|faults-suite|fleet-open|all
//	         [-seed N] [-seconds S] [-trace 0|1|FILE] [-out FILE]
//	clrbench -compare [-benchmark BENCHMARK.json] A B
//
// An untraced run measures the end-to-end metrics; a traced run (-trace 1,
// or -trace FILE) records spans around every call the benchmark makes into
// a layer, writes them at exit, and reports the per-layer metrics. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. -workload all runs each workload in a
// fresh process. -compare reads two sets of -out reports and judges every
// (workload, end-to-end metric) pair against the bounds in BENCHMARK.json.
// README.md describes the workloads and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// workDir holds the fleet's stores and the default span files; it lies
// inside the checkout the benchmark runs from and is ignored by git.
const workDir = ".bench_build"

// runGuard caps one run's wall time well inside the three minutes a run
// may take, whatever the measured time.
const runGuard = 120 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clrbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clrbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-mix, ga-mapping, faults-suite, fleet-open or all")
	seed := fs.Int64("seed", 1, "workload seed; equal seeds generate identical inputs")
	seconds := fs.Int("seconds", 20, "measured time of one run, in seconds")
	trace := fs.String("trace", "0", "0: untraced; 1: traced, spans written under "+workDir+"; any other value: traced, spans written to that file")
	out := fs.String("out", "", "write the full run report (JSON) to this file")
	compare := fs.Bool("compare", false, "compare two sets of -out reports: clrbench -compare A B")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "benchmark definition giving the -compare bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		return runCompare(os.Stdout, *benchFile, fs.Args())
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", *seconds)
	}
	if *name == "all" {
		return runAll(args)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}

	rep := newReport(w.name, *seed, *seconds)
	cfg := runConfig{seconds: float64(*seconds), setups: 3, hvRounds: 3, workDir: workDir, guard: runGuard}
	spanFile := ""
	switch *trace {
	case "0", "":
	case "1":
		spanFile = filepath.Join(workDir, fmt.Sprintf("clrbench-spans-%s-seed%d.json", w.name, *seed))
	default:
		spanFile = *trace
	}
	if spanFile != "" {
		rep.Traced = true
		cfg.tracer = newTracer()
	}
	if err := runWorkload(w, *seed, cfg, rep); err != nil {
		return err
	}
	if spanFile != "" {
		if err := cfg.tracer.write(spanFile); err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", spanFile)
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			return err
		}
	}
	rep.printTable(os.Stdout)
	line, err := rep.resultLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted)
	}
	return nil
}

// runWorkload sizes the run for the workload, runs it, and completes the
// report with the process-level results.
func runWorkload(w workload, seed int64, cfg runConfig, rep *Report) error {
	var err error
	if w.fleet != nil {
		err = runFleet(seed, cfg, *w.fleet, rep)
	} else {
		err = runClosed(w, seed, cfg, rep)
	}
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.set("fail_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return nil
}

// runAll re-executes this program once per workload, so each starts with
// cold caches and its own peak RSS. With -out, each report goes to the
// -out path with the workload name inserted before the extension.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		child := append([]string(nil), args...)
		for i, a := range child {
			switch {
			case a == "-workload" || a == "--workload":
				child[i+1] = w.name
			case strings.HasPrefix(a, "-workload=") || strings.HasPrefix(a, "--workload="):
				child[i] = "-workload=" + w.name
			}
		}
		child = withOutSuffix(child, w.name)
		cmd := exec.Command(self, child...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

// withOutSuffix rewrites an -out FILE argument to FILE with ".name"
// inserted before its extension.
func withOutSuffix(args []string, name string) []string {
	rename := func(p string) string {
		ext := filepath.Ext(p)
		return strings.TrimSuffix(p, ext) + "." + name + ext
	}
	for i, a := range args {
		switch {
		case (a == "-out" || a == "--out") && i+1 < len(args):
			args[i+1] = rename(args[i+1])
		case strings.HasPrefix(a, "-out="), strings.HasPrefix(a, "--out="):
			k, v, _ := strings.Cut(a, "=")
			args[i] = k + "=" + rename(v)
		}
	}
	return args
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
