package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric of BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off; BENCHMARK.json gives their regression bounds.
var endToEnd = []metricDef{
	{"jobs_per_s", "jobs/s", "higher"},
	{"done_p50_ms", "ms", "lower"},
	{"done_p75_ms", "ms", "lower"},
	{"hv_share", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, one layer each. README.md says
// which end-to-end metric and workload each should move.
var perLayer = []metricDef{
	{"service.build_s", "s", "lower"},
	{"core.run_s", "s", "lower"},
	{"tdse.candidates", "count", "lower"},
	{"tdse.enumerate_s", "s", "lower"},
	{"tdse.filter_s", "s", "lower"},
	{"tdse.kept_ratio", "ratio", "higher"},
	{"relmodel.chain_pairs", "count", "lower"},
	{"relmodel.paired_ratio", "ratio", "higher"},
	{"relmodel.build_chains_us", "us", "lower"},
	{"markov.analyze_pair_us", "us", "lower"},
	{"core.fitness_hit_ratio", "ratio", "higher"},
	{"core.metrics_hit_ratio", "ratio", "higher"},
	{"core.metrics_misses", "count", "lower"},
	{"core.delta_prefix_ratio", "ratio", "higher"},
	{"core.delta_parent_reuse", "count", "higher"},
	{"core.stage_share.pfclr", "ratio", "lower"},
	{"core.stage_share.fcclr", "ratio", "lower"},
	{"core.stage_share.layer", "ratio", "lower"},
	{"moea.evals", "count", "higher"},
	{"moea.evals_per_s", "1/s", "higher"},
	{"moea.gen_ms_p50", "ms", "lower"},
	{"moea.select_s", "s", "lower"},
	{"schedule.eval_us_p50", "us", "lower"},
	{"gateway.cache_hits", "count", "higher"},
	{"gateway.store_hits", "count", "higher"},
	{"gateway.inflight_attach", "count", "higher"},
	{"gateway.misses", "count", "lower"},
	{"gateway.dedup_hit_ratio", "ratio", "higher"},
	{"gateway.lease_grants", "count", "lower"},
	{"gateway.lease_redeliveries", "count", "lower"},
	{"gateway.backlog_end", "count", "lower"},
	{"store.appends", "count", "lower"},
	{"store.fsyncs", "count", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

// Env records where a run was measured.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
}

func currentEnv() Env {
	return Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Report is the full record of one run, as -out writes it and -compare
// reads it. Metrics holds every measured value: the end-to-end metrics
// (taken with tracing on too, in a traced run, but only the untraced ones
// count), the per-layer ones in a traced run, and the workload's extras
// (raw values, hit latencies, the fleet's latency breakdown, sample
// counts).
type Report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Env       Env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	// Samples keeps the measured values behind the aggregates, in run
	// order: job_ms per closed-loop job; done_ms, hit_ms, exec_ms and
	// admit_ms per fleet request; hv_share per scored job.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func newReport(workload string, seed int64, seconds int) *Report {
	return &Report{Workload: workload, Seed: seed, Seconds: seconds, Env: currentEnv(),
		Metrics: make(map[string]Metric), Samples: make(map[string][]float64)}
}

// maxFailureMessages caps the failure messages a report keeps.
const maxFailureMessages = 20

// record counts one attempted operation and, when err is non-nil, its
// failure.
func (r *Report) record(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < maxFailureMessages {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

func (r *Report) set(name string, value float64, unit string) {
	r.Metrics[name] = Metric{value, unit}
}

// contractDefs are the metrics the run's last output line carries.
func (r *Report) contractDefs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// resultLine is the run's last line of standard output: exactly the keys
// correct, attempted, failed and metrics, with the metrics of the run's
// mode.
func (r *Report) resultLine() ([]byte, error) {
	m := make(map[string]Metric)
	for _, d := range r.contractDefs() {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		m[d.Name] = v
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m})
}

// printTable writes every measured metric, contract metrics first.
func (r *Report) printTable(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "clrbench %s seed=%d seconds=%d (%s) on %d×%s, GOMAXPROCS=%d, %s\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Env.NProc, r.Env.CPU, r.Env.GOMAXPROCS, r.Env.GoVersion)
	seen := make(map[string]bool)
	for _, d := range r.contractDefs() {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v.Value, v.Unit)
			seen[d.Name] = true
		}
	}
	var extra []string
	for name := range r.Metrics {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		v := r.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %s (extra)\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%t\n", r.Attempted, r.Failed, r.Correct)
	for _, msg := range r.Failures {
		fmt.Fprintf(w, "  FAIL: %s\n", msg)
	}
}
