package core

import (
	"sync/atomic"

	"repro/internal/moea"
	"repro/internal/relmodel"
)

// accelCounters accumulates process-wide evaluation-acceleration activity:
// how often the delta evaluator reused its parent outright, replayed a
// schedule prefix, or fell back to a full run; how many per-task metric
// decodes were skipped; and how many cache entries batch preparation
// warmed. They are monotone totals across all instances.
var accelCounters struct {
	deltaParentReuse atomic.Uint64
	deltaPrefixRuns  atomic.Uint64
	deltaFullRuns    atomic.Uint64
	metricsReused    atomic.Uint64
	batchWarmed      atomic.Uint64
}

// AccelStats is a snapshot of the process-wide evaluation-acceleration
// counters: the delta-evaluation, batching and surrogate-screening
// machinery of the DSE hot path.
type AccelStats struct {
	// DeltaParentReuse counts evaluations answered by the parent's result
	// because the child decoded to identical schedule inputs.
	DeltaParentReuse uint64
	// DeltaPrefixRuns counts schedule evaluations that replayed a parent
	// prefix; DeltaFullRuns counts full schedule runs (initial populations,
	// changed orders, missing replay state).
	DeltaPrefixRuns, DeltaFullRuns uint64
	// MetricsReused counts per-task metric decodes skipped because the gene
	// matched the parent's.
	MetricsReused uint64
	// BatchWarmed counts metric-cache entries warmed by generation batch
	// preparation.
	BatchWarmed uint64
	// ProxyEvals / ScreenedOut are the surrogate screening totals (see
	// moea.SurrogateTotals).
	ProxyEvals, ScreenedOut uint64
	// PairedSolves / SoloSolves count reliability chain analyses that did /
	// did not share one factorization between the timing and functional
	// chains (see relmodel.PairSolveTotals).
	PairedSolves, SoloSolves uint64
}

// AccelTotals aggregates the process-wide evaluation-acceleration counters
// across the core, moea and relmodel layers — the source of clrearlyd's
// /metrics eval_accel block and the experiment harness's stderr summary.
func AccelTotals() AccelStats {
	sur := moea.SurrogateTotals()
	pair := relmodel.PairSolveTotals()
	return AccelStats{
		DeltaParentReuse: accelCounters.deltaParentReuse.Load(),
		DeltaPrefixRuns:  accelCounters.deltaPrefixRuns.Load(),
		DeltaFullRuns:    accelCounters.deltaFullRuns.Load(),
		MetricsReused:    accelCounters.metricsReused.Load(),
		BatchWarmed:      accelCounters.batchWarmed.Load(),
		ProxyEvals:       sur.Proxy,
		ScreenedOut:      sur.Screened,
		PairedSolves:     pair.Paired,
		SoloSolves:       pair.Solo,
	}
}

// SelectionTotals exposes the engine-level selection-path and
// plateau-convergence counters to the service layers — the source of the
// daemon's /metrics selection and convergence blocks.
func SelectionTotals() moea.SelectionStats {
	return moea.SelectionTotals()
}
