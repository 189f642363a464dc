package moea

import "sync/atomic"

// selectionTotals accumulates process-wide selection-path activity across
// every engine run: each run batches its counters locally and flushes once
// at the end, so the hot path never touches shared cache lines.
var selectionTotals struct {
	sortNanos    atomic.Uint64
	archiveNanos atomic.Uint64
}

// SelectionStats is a snapshot of the process-wide selection-path counters
// — the source of the daemon's /metrics selection block.
type SelectionStats struct {
	// SortNanos / ArchiveNanos are the cumulative wall-clock nanoseconds
	// spent in non-dominated sorting + crowding and in archive updates.
	SortNanos    uint64 `json:"sort_ns"`
	ArchiveNanos uint64 `json:"archive_ns"`
}

// SelectionTotals returns the process-wide selection counters.
func SelectionTotals() SelectionStats {
	return SelectionStats{
		SortNanos:    selectionTotals.sortNanos.Load(),
		ArchiveNanos: selectionTotals.archiveNanos.Load(),
	}
}

// flushSelectionTotals publishes one finished run's locally accumulated
// counters: its archive's and the archive's sort scratch's.
func flushSelectionTotals(arch *archiveState) {
	selectionTotals.sortNanos.Add(uint64(arch.sc.nanos))
	selectionTotals.archiveNanos.Add(uint64(arch.nanos))
	arch.sc.nanos, arch.nanos = 0, 0
}
