package core

import (
	"sync/atomic"

	"repro/internal/moea"
	"repro/internal/relmodel"
	"repro/internal/tdse"
)

// accelCounters accumulates process-wide evaluation-acceleration activity:
// how often the delta evaluator reused its parent outright, replayed a
// schedule prefix, or fell back to a full run, and how many per-task metric
// decodes were skipped. They are monotone totals across all instances.
var accelCounters struct {
	deltaParentReuse atomic.Uint64
	deltaPrefixRuns  atomic.Uint64
	deltaFullRuns    atomic.Uint64
	metricsReused    atomic.Uint64
}

// AccelStats is a snapshot of the process-wide evaluation-acceleration
// counters: the delta-evaluation, tDSE screen and paired chain-solve
// machinery of the DSE hot path. The daemon serves it as the /metrics eval_accel block.
type AccelStats struct {
	// DeltaParentReuse counts evaluations answered by the parent's result
	// because the child decoded to identical schedule inputs.
	DeltaParentReuse uint64 `json:"delta_parent_reuse"`
	// DeltaPrefixRuns counts schedule evaluations that replayed a parent
	// prefix; DeltaFullRuns counts full schedule runs (initial populations,
	// changed orders, missing replay state).
	DeltaPrefixRuns uint64 `json:"delta_prefix_runs"`
	DeltaFullRuns   uint64 `json:"delta_full_runs"`
	// MetricsReused counts per-task metric decodes skipped because the gene
	// matched the parent's.
	MetricsReused uint64 `json:"metrics_reused"`
	// PairedSolves / SoloSolves count reliability chain analyses that did /
	// did not share one factorization between the timing and functional
	// chains (see relmodel.PairSolveTotals).
	PairedSolves uint64 `json:"paired_solves"`
	SoloSolves   uint64 `json:"solo_solves"`
	// PlanCompiles counts chain-structure plans compiled; DenseFallbacks
	// counts chain systems that left the plan replay for the dense kernel.
	PlanCompiles   uint64 `json:"plan_compiles"`
	DenseFallbacks uint64 `json:"dense_fallbacks"`
	// ScreenEstimated counts tDSE candidates estimated in closed form,
	// ScreenSolved those of them whose chains the screen let through to
	// the exact analysis, and ScreenFallbacks task types that took the
	// unscreened path instead (see tdse.ScreenTotals).
	ScreenEstimated uint64 `json:"screen_estimated"`
	ScreenSolved    uint64 `json:"screen_solved"`
	ScreenFallbacks uint64 `json:"screen_fallbacks"`
}

// AccelTotals aggregates the process-wide evaluation-acceleration counters
// across the core, tdse and relmodel layers — the source of clrearlyd's
// /metrics eval_accel block and the experiment harness's stderr summary.
func AccelTotals() AccelStats {
	pair := relmodel.PairSolveTotals()
	screen := tdse.ScreenTotals()
	return AccelStats{
		DeltaParentReuse: accelCounters.deltaParentReuse.Load(),
		DeltaPrefixRuns:  accelCounters.deltaPrefixRuns.Load(),
		DeltaFullRuns:    accelCounters.deltaFullRuns.Load(),
		MetricsReused:    accelCounters.metricsReused.Load(),
		PairedSolves:     pair.Paired,
		SoloSolves:       pair.Solo,
		PlanCompiles:     pair.PlanCompiles,
		DenseFallbacks:   pair.DenseFallbacks,
		ScreenEstimated:  screen.Estimated,
		ScreenSolved:     screen.Solved,
		ScreenFallbacks:  screen.Fallbacks,
	}
}

// SelectionTotals exposes the engine-level selection-path counters to the
// service layers — the source of the daemon's /metrics selection block.
func SelectionTotals() moea.SelectionStats {
	return moea.SelectionTotals()
}
