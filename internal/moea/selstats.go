package moea

import (
	"math"
	"sync/atomic"
)

// selectionTotals accumulates process-wide selection-path and convergence
// activity across every engine run: each run batches its counters locally
// and flushes once at the end, so the hot path never touches shared cache
// lines.
var selectionTotals struct {
	sortNanos    atomic.Uint64
	archiveNanos atomic.Uint64
	gensRun      atomic.Uint64
	gensBudget   atomic.Uint64
	gensSaved    atomic.Uint64
	plateauStops atomic.Uint64
	lastHVBits   atomic.Uint64
}

// SelectionStats is a snapshot of the process-wide selection-path and
// plateau-convergence counters — the source of the daemon's /metrics
// selection/convergence blocks and the experiment harness's stderr
// summary.
type SelectionStats struct {
	// SortNanos / ArchiveNanos are the cumulative wall-clock nanoseconds
	// spent in non-dominated sorting + crowding and in archive updates.
	SortNanos    uint64
	ArchiveNanos uint64
	// GenerationsRun counts completed GA generations; GenerationsBudget
	// counts the generations the runs were configured for. The two differ
	// only when plateau termination stops runs early.
	GenerationsRun    uint64
	GenerationsBudget uint64
	// GenerationsSaved is the budget left unspent by plateau termination.
	GenerationsSaved uint64
	// PlateauStops counts runs ended by plateau termination.
	PlateauStops uint64
	// LastHypervolume is the final archive hypervolume of the most recent
	// plateau-tracked run, against that run's fixed reference point (0
	// when no run tracked convergence yet).
	LastHypervolume float64
}

// SelectionTotals returns the process-wide selection and convergence
// counters.
func SelectionTotals() SelectionStats {
	return SelectionStats{
		SortNanos:         selectionTotals.sortNanos.Load(),
		ArchiveNanos:      selectionTotals.archiveNanos.Load(),
		GenerationsRun:    selectionTotals.gensRun.Load(),
		GenerationsBudget: selectionTotals.gensBudget.Load(),
		GenerationsSaved:  selectionTotals.gensSaved.Load(),
		PlateauStops:      selectionTotals.plateauStops.Load(),
		LastHypervolume:   math.Float64frombits(selectionTotals.lastHVBits.Load()),
	}
}

// flushSelectionTotals publishes one finished run's locally accumulated
// counters. startGen/doneGen/budget are in completed generations; stopped
// marks a plateau termination.
func flushSelectionTotals(sc *selScratch, arch *archiveState, ps *plateauState, startGen, doneGen, budget int, stopped bool) {
	selectionTotals.sortNanos.Add(uint64(sc.nanos))
	selectionTotals.archiveNanos.Add(uint64(arch.nanos))
	if doneGen > startGen {
		selectionTotals.gensRun.Add(uint64(doneGen - startGen))
	}
	if budget > startGen {
		selectionTotals.gensBudget.Add(uint64(budget - startGen))
	}
	if stopped {
		selectionTotals.plateauStops.Add(1)
		if budget > doneGen {
			selectionTotals.gensSaved.Add(uint64(budget - doneGen))
		}
	}
	if ps.enabled && ps.ref != nil {
		selectionTotals.lastHVBits.Store(math.Float64bits(ps.prevHV))
	}
	sc.nanos, arch.nanos = 0, 0
}
