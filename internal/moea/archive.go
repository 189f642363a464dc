package moea

import (
	"slices"
	"time"

	"repro/internal/pareto"
)

// archiveState is the external non-dominated archive of one engine run,
// maintained incrementally: each feasible exact-evaluated candidate is
// dominance-checked against the standing members instead of re-filtering
// archive+batch from scratch every generation. The invariant — members
// form an antichain with pairwise-distinct objective vectors, in the order
// the old pareto.Filter rebuild would have emitted — makes the survivor
// set and order byte-identical to the rebuild it replaced:
//
//   - a candidate weakly dominated by a member is rejected outright; by
//     transitivity, anything that would later have evicted that member
//     would have dominated the candidate too, so the rejection is final;
//   - an accepted candidate evicts the members it strictly dominates
//     (order-preserving compaction) and appends, which is exactly the
//     original-order survivor list of Filter over the union, where
//     duplicated vectors keep their first occurrence.
type archiveState struct {
	members []*solution
	limit   int
	sc      *selScratch

	nanos int64 // accumulated archive-update time, flushed by the run
}

func newArchiveState(limit int, sc *selScratch) *archiveState {
	return &archiveState{limit: limit, sc: sc}
}

// restore adopts a checkpoint-restored member list wholesale (already an
// antichain in archive order).
func (a *archiveState) restore(members []*solution) {
	for _, s := range members {
		s.archived = true
	}
	a.members = members
}

// add merges the feasible members of batch into the archive and truncates
// to the cap by crowding distance if the whole batch pushed it past the
// limit — the same batch-then-truncate cadence as the full rebuild it
// replaced.
func (a *archiveState) add(batch []*solution) {
	start := time.Now()
	for _, s := range batch {
		if s.eval.Violation == 0 {
			a.insert(s)
		}
	}
	if len(a.members) > a.limit {
		a.truncate()
	}
	a.nanos += time.Since(start).Nanoseconds()
}

// addEach is add with MOEA/D's cadence: each member of batch is followed
// by its own truncation, as if it had been added alone, so the archive
// ends up as after one add per member. The whole batch is timed once.
func (a *archiveState) addEach(batch []*solution) {
	start := time.Now()
	for _, s := range batch {
		if s.eval.Violation == 0 {
			a.insert(s)
		}
		if len(a.members) > a.limit {
			a.truncate()
		}
	}
	a.nanos += time.Since(start).Nanoseconds()
}

// front deep-copies the members into a reported front.
func (a *archiveState) front() []Solution {
	var front []Solution
	for _, s := range a.members {
		front = append(front, Solution{
			Genome:     s.genome.Clone(),
			Objectives: append([]float64(nil), s.eval.Objectives...),
		})
	}
	return front
}

// insert dominance-checks one feasible candidate against the standing
// members: reject if weakly dominated (covers duplicates — the standing
// copy survives), otherwise evict strictly dominated members and append.
func (a *archiveState) insert(s *solution) {
	obj := s.eval.Objectives
	for _, m := range a.members {
		if pareto.WeaklyDominates(m.eval.Objectives, obj) {
			return
		}
	}
	w := 0
	for _, m := range a.members {
		if pareto.Dominates(obj, m.eval.Objectives) {
			m.archived = false
			continue
		}
		a.members[w] = m
		w++
	}
	a.members = a.members[:w]
	a.members = append(a.members, s)
	s.archived = true
}

// truncate cuts the archive to its cap, keeping the most crowding-diverse
// members. Crowding ties break by the member's pre-truncation archive
// position (ascending), so truncation is fully deterministic: the
// composite key (crowd descending, position ascending) is unique, and the
// surviving order — which feeds every later generation — depends only on
// the archive contents, never on sort-internal permutation behavior.
func (a *archiveState) truncate() {
	sc := a.sc
	sc.assignCrowding(a.members)
	n := len(a.members)
	sc.idx = grow(sc.idx, n)
	for i := range sc.idx {
		sc.idx[i] = i
	}
	slices.SortFunc(sc.idx, func(i, j int) int {
		ci, cj := a.members[i].crowd, a.members[j].crowd
		if ci != cj {
			return cmpLess(ci > cj)
		}
		return i - j
	})
	if cap(sc.buf) < n {
		sc.buf = make([]*solution, n)
	}
	buf := sc.buf[:n]
	for i, j := range sc.idx {
		buf[i] = a.members[j]
	}
	copy(a.members, buf[:a.limit])
	for _, m := range buf[a.limit:] {
		m.archived = false
	}
	for i := a.limit; i < n; i++ {
		a.members[i] = nil // release truncated members to the GC
	}
	a.members = a.members[:a.limit]
	for i := range buf {
		buf[i] = nil
	}
}
