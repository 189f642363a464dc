// Package heft implements the Heterogeneous Earliest Finish Time list
// scheduling heuristic (Topcuoglu et al.) for the platform and application
// models of this project: tasks are ranked by upward rank (critical-path
// distance to the exit, using mean execution costs across PEs) and greedily
// assigned to the PE finishing them earliest. The result is a deterministic,
// constructive mapping — a classical baseline for the GA-based DSE and a
// high-quality seed for its initial population.
package heft

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// Costs supplies the scheduling inputs: the execution time of every task on
// every PE (math.Inf(1) marks incompatibility) and optional communication
// delays per edge when the endpoints are placed on different PEs.
type Costs struct {
	// ExecUS[t][pe] is task t's execution time on PE pe.
	ExecUS [][]float64
	// CommUS maps dependency edges to their cross-PE transfer delay
	// (same-PE communication is free). Nil means no communication costs.
	CommUS map[[2]int]float64
}

// Result is the constructed schedule.
type Result struct {
	// PE[t] is the processing element assigned to task t.
	PE []int
	// Order is the scheduling priority (descending upward rank).
	Order []int
	// StartUS and EndUS are the task start/finish times.
	StartUS, EndUS []float64
	// MakespanUS is the schedule length.
	MakespanUS float64
}

// Schedule runs HEFT on the application.
func Schedule(g *taskgraph.Graph, p *platform.Platform, costs Costs) (*Result, error) {
	n := g.NumTasks()
	if len(costs.ExecUS) != n {
		return nil, fmt.Errorf("heft: costs cover %d tasks, want %d", len(costs.ExecUS), n)
	}
	nPE := p.NumPEs()
	meanCost := make([]float64, n)
	for t := 0; t < n; t++ {
		if len(costs.ExecUS[t]) != nPE {
			return nil, fmt.Errorf("heft: task %d costs cover %d PEs, want %d", t, len(costs.ExecUS[t]), nPE)
		}
		sum, cnt := 0.0, 0
		for _, c := range costs.ExecUS[t] {
			if math.IsInf(c, 1) {
				continue
			}
			if c <= 0 {
				return nil, fmt.Errorf("heft: task %d has non-positive cost %v", t, c)
			}
			sum += c
			cnt++
		}
		if cnt == 0 {
			return nil, fmt.Errorf("heft: task %d runs on no PE", t)
		}
		meanCost[t] = sum / float64(cnt)
	}

	// Upward ranks in reverse topological order.
	rank := make([]float64, n)
	topo := g.TopoOrder()
	for i := n - 1; i >= 0; i-- {
		t := topo[i]
		best := 0.0
		for _, s := range g.Succs(t) {
			r := rank[s] + costs.meanComm(t, s)
			if r > best {
				best = r
			}
		}
		rank[t] = meanCost[t] + best
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rank[order[a]] > rank[order[b]] })

	res := &Result{
		PE:      make([]int, n),
		Order:   order,
		StartUS: make([]float64, n),
		EndUS:   make([]float64, n),
	}
	peFree := make([]float64, nPE)
	scheduled := make([]bool, n)
	for _, t := range order {
		// HEFT's rank order is a valid topological order, so all
		// predecessors are already placed.
		for _, pr := range g.Preds(t) {
			if !scheduled[pr] {
				return nil, fmt.Errorf("heft: rank order broke precedence at task %d", t)
			}
		}
		bestPE, bestStart, bestEnd := -1, 0.0, math.Inf(1)
		for pe := 0; pe < nPE; pe++ {
			c := costs.ExecUS[t][pe]
			if math.IsInf(c, 1) {
				continue
			}
			ready := 0.0
			for _, pr := range g.Preds(t) {
				at := res.EndUS[pr]
				if res.PE[pr] != pe {
					at += costs.comm(pr, t)
				}
				ready = math.Max(ready, at)
			}
			start := math.Max(ready, peFree[pe])
			if end := start + c; end < bestEnd {
				bestPE, bestStart, bestEnd = pe, start, end
			}
		}
		if bestPE < 0 {
			return nil, fmt.Errorf("heft: no feasible PE for task %d", t)
		}
		res.PE[t] = bestPE
		res.StartUS[t] = bestStart
		res.EndUS[t] = bestEnd
		peFree[bestPE] = bestEnd
		scheduled[t] = true
		res.MakespanUS = math.Max(res.MakespanUS, bestEnd)
	}
	return res, nil
}

func (c Costs) comm(from, to int) float64 {
	if c.CommUS == nil {
		return 0
	}
	return c.CommUS[[2]int{from, to}]
}

// meanComm is the average communication cost used for ranking: half the
// cross-PE delay, reflecting that endpoints share a PE part of the time.
func (c Costs) meanComm(from, to int) float64 {
	return c.comm(from, to) / 2
}
