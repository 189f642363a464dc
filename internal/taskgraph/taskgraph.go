// Package taskgraph implements the application model of Section III.B of
// the paper: an application is a directed acyclic task graph
// G_app = (T_app, E_app, P_app) — task nodes, dependency edges and the
// application's periodicity. Each task carries a type (its functionality;
// several tasks may share a type and therefore share implementations) and a
// criticality weight used by the functional-reliability estimate (Eq. 3).
package taskgraph

import (
	"fmt"
)

// Task is one node of the application task graph.
type Task struct {
	ID   int
	Name string
	// Type indexes the task's functionality; tasks of equal type share the
	// same implementation set.
	Type int
	// Criticality is the raw application-specific weight of the task for
	// functional reliability. Normalized weights ζ are obtained from
	// Graph.NormalizedCriticality.
	Criticality float64
}

// Edge is a dependency: To may start only after From completes. DataKB is
// the volume of data communicated along the edge, consumed by the optional
// communication-aware scheduling extension (zero = negligible).
type Edge struct {
	From, To int
	DataKB   float64
}

// Graph is an application task graph.
type Graph struct {
	Name string
	// PeriodUS is P_app, the application period in microseconds; the
	// lifetime-reliability model accumulates aging stress once per period.
	PeriodUS float64

	tasks []Task
	edges []Edge
	preds [][]int
	succs [][]int
	// normCrit caches the normalized criticality weights ζ of Eq. 3,
	// computed once in init — the list scheduler reads them per evaluation.
	normCrit []float64
	// numTypes caches 1 + max task type.
	numTypes int
}

// Builder incrementally assembles a Graph.
type Builder struct {
	name     string
	periodUS float64
	tasks    []Task
	edges    []Edge
}

// NewBuilder starts a graph with the given name and period (µs).
func NewBuilder(name string, periodUS float64) *Builder {
	return &Builder{name: name, periodUS: periodUS}
}

// AddTask appends a task and returns its ID. Criticality must be positive.
func (b *Builder) AddTask(name string, taskType int, criticality float64) int {
	id := len(b.tasks)
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Type: taskType, Criticality: criticality})
	return id
}

// AddEdge records a dependency from → to with no communication payload.
func (b *Builder) AddEdge(from, to int) *Builder {
	return b.AddEdgeData(from, to, 0)
}

// AddEdgeData records a dependency carrying the given data volume in KB.
func (b *Builder) AddEdgeData(from, to int, dataKB float64) *Builder {
	b.edges = append(b.edges, Edge{From: from, To: to, DataKB: dataKB})
	return b
}

// Build validates and returns the graph.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{
		Name:     b.name,
		PeriodUS: b.periodUS,
		tasks:    append([]Task(nil), b.tasks...),
		edges:    append([]Edge(nil), b.edges...),
	}
	if err := g.init(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustBuild is Build that panics on error; for known-good literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic("taskgraph: " + err.Error())
	}
	return g
}

func (g *Graph) init() error {
	if len(g.tasks) == 0 {
		return fmt.Errorf("taskgraph %q: no tasks", g.Name)
	}
	if g.PeriodUS <= 0 {
		return fmt.Errorf("taskgraph %q: period %v must be positive", g.Name, g.PeriodUS)
	}
	n := len(g.tasks)
	g.preds = make([][]int, n)
	g.succs = make([][]int, n)
	type pair struct{ from, to int }
	seen := make(map[pair]bool, len(g.edges))
	for i, t := range g.tasks {
		if t.ID != i {
			return fmt.Errorf("taskgraph %q: task %d has ID %d", g.Name, i, t.ID)
		}
		if t.Criticality <= 0 {
			return fmt.Errorf("taskgraph %q: task %q criticality %v must be positive", g.Name, t.Name, t.Criticality)
		}
		if t.Type < 0 {
			return fmt.Errorf("taskgraph %q: task %q has negative type", g.Name, t.Name)
		}
		if t.Type+1 > g.numTypes {
			g.numTypes = t.Type + 1
		}
	}
	for _, e := range g.edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("taskgraph %q: edge %v references unknown task", g.Name, e)
		}
		if e.From == e.To {
			return fmt.Errorf("taskgraph %q: self-loop on task %d", g.Name, e.From)
		}
		if e.DataKB < 0 {
			return fmt.Errorf("taskgraph %q: edge %v has negative data volume", g.Name, e)
		}
		k := pair{e.From, e.To}
		if seen[k] {
			return fmt.Errorf("taskgraph %q: duplicate edge %v", g.Name, e)
		}
		seen[k] = true
		g.succs[e.From] = append(g.succs[e.From], e.To)
		g.preds[e.To] = append(g.preds[e.To], e.From)
	}
	if _, err := g.topoOrder(); err != nil {
		return err
	}
	total := 0.0
	for _, t := range g.tasks {
		total += t.Criticality
	}
	g.normCrit = make([]float64, n)
	for i, t := range g.tasks {
		g.normCrit[i] = t.Criticality / total
	}
	return nil
}

// NumTasks returns the number of tasks T.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumTypes returns the number of distinct task types (1 + max type index).
func (g *Graph) NumTypes() int { return g.numTypes }

// Task returns task t.
func (g *Graph) Task(t int) Task {
	g.check(t)
	return g.tasks[t]
}

// Tasks returns all tasks in ID order.
func (g *Graph) Tasks() []Task { return append([]Task(nil), g.tasks...) }

// Edges returns all dependency edges. The returned slice is a shared
// internal view — callers must not modify it. (These accessors sit on the
// scheduler's per-evaluation hot path; copying per call dominated its
// allocation profile.)
func (g *Graph) Edges() []Edge { return g.edges }

// Preds returns the predecessor task IDs of t. The returned slice is a
// shared internal view — callers must not modify it.
func (g *Graph) Preds(t int) []int {
	g.check(t)
	return g.preds[t]
}

// Succs returns the successor task IDs of t. The returned slice is a
// shared internal view — callers must not modify it.
func (g *Graph) Succs(t int) []int {
	g.check(t)
	return g.succs[t]
}

func (g *Graph) check(t int) {
	if t < 0 || t >= len(g.tasks) {
		panic(fmt.Sprintf("taskgraph %q: task %d out of range", g.Name, t))
	}
}

// TopoOrder returns a deterministic topological ordering of the task IDs
// (Kahn's algorithm; ties broken by smallest ID).
func (g *Graph) TopoOrder() []int {
	order, err := g.topoOrder()
	if err != nil {
		// init verified acyclicity, so this is unreachable for built graphs.
		panic("taskgraph: " + err.Error())
	}
	return order
}

func (g *Graph) topoOrder() ([]int, error) {
	n := len(g.tasks)
	indeg := make([]int, n)
	for _, e := range g.edges {
		indeg[e.To]++
	}
	var ready []int
	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			ready = append(ready, t)
		}
	}
	var order []int
	for len(ready) > 0 {
		// Smallest-ID tie-break keeps the order deterministic.
		best := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[best] {
				best = i
			}
		}
		t := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, t)
		for _, s := range g.succs[t] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("taskgraph %q: dependency cycle detected", g.Name)
	}
	return order, nil
}

// NormalizedCriticality returns the weights ζ_t of Eq. 3: each task's
// criticality divided by the total, so they sum to 1. The returned slice
// is a shared internal view, precomputed at build time — callers must not
// modify it.
func (g *Graph) NormalizedCriticality() []float64 { return g.normCrit }

// IsValidTopo reports whether order is a permutation of the task IDs that
// respects all dependency edges.
func (g *Graph) IsValidTopo(order []int) bool {
	if len(order) != len(g.tasks) {
		return false
	}
	pos := make([]int, len(g.tasks))
	seen := make([]bool, len(g.tasks))
	for i, t := range order {
		if t < 0 || t >= len(g.tasks) || seen[t] {
			return false
		}
		seen[t] = true
		pos[t] = i
	}
	for _, e := range g.edges {
		if pos[e.From] > pos[e.To] {
			return false
		}
	}
	return true
}

// Sobel task-type indices, fixed by the Sobel constructor below.
const (
	SobelGScale = iota
	SobelGSmth
	SobelSobGrad
	SobelCombThr
	SobelNumTypes
)

// Sobel returns the Sobel edge-detection application of Fig. 2(b):
// five tasks of four types and five edges —
// GScale → GSmth → {SobGradX, SobGradY} → CombThr.
func Sobel() *Graph {
	b := NewBuilder("sobel", 1.0e4)
	t0 := b.AddTask("GScale", SobelGScale, 1)
	t1 := b.AddTask("GSmth", SobelGSmth, 1)
	t2 := b.AddTask("SobGradX", SobelSobGrad, 1)
	t3 := b.AddTask("SobGradY", SobelSobGrad, 1)
	t4 := b.AddTask("CombThr", SobelCombThr, 1.5)
	const frameKB = 75 // QVGA grayscale frame
	b.AddEdgeData(t0, t1, frameKB)
	b.AddEdgeData(t1, t2, frameKB)
	b.AddEdgeData(t1, t3, frameKB)
	b.AddEdgeData(t2, t4, frameKB)
	b.AddEdgeData(t3, t4, frameKB)
	return b.MustBuild()
}

// JPEG task-type indices, fixed by the JPEG constructor below.
const (
	JPEGColorConv = iota
	JPEGDCT
	JPEGQuant
	JPEGZigZagRLE
	JPEGHuffman
	JPEGNumTypes
)

// JPEG returns a baseline JPEG encoder pipeline: color conversion feeding
// per-component DCT and quantization (Y, Cb, Cr in parallel), followed by
// zig-zag/run-length reordering and Huffman coding — nine tasks of five
// types, a second real-life application alongside Sobel.
func JPEG() *Graph {
	b := NewBuilder("jpeg", 2.0e4)
	conv := b.AddTask("RGB2YCC", JPEGColorConv, 1)
	dctY := b.AddTask("DCT_Y", JPEGDCT, 1.2)
	dctCb := b.AddTask("DCT_Cb", JPEGDCT, 1)
	dctCr := b.AddTask("DCT_Cr", JPEGDCT, 1)
	qY := b.AddTask("Quant_Y", JPEGQuant, 1.2)
	qCb := b.AddTask("Quant_Cb", JPEGQuant, 1)
	qCr := b.AddTask("Quant_Cr", JPEGQuant, 1)
	zz := b.AddTask("ZigZagRLE", JPEGZigZagRLE, 1.3)
	huff := b.AddTask("Huffman", JPEGHuffman, 1.6)

	const (
		planeKB = 64 // one component plane
		coefKB  = 80 // quantized coefficients
	)
	b.AddEdgeData(conv, dctY, planeKB)
	b.AddEdgeData(conv, dctCb, planeKB/2)
	b.AddEdgeData(conv, dctCr, planeKB/2)
	b.AddEdgeData(dctY, qY, planeKB)
	b.AddEdgeData(dctCb, qCb, planeKB/2)
	b.AddEdgeData(dctCr, qCr, planeKB/2)
	b.AddEdgeData(qY, zz, coefKB)
	b.AddEdgeData(qCb, zz, coefKB/2)
	b.AddEdgeData(qCr, zz, coefKB/2)
	b.AddEdgeData(zz, huff, coefKB)
	return b.MustBuild()
}

// Depth returns the number of levels of the graph: the length of the
// longest path measured in tasks (a single task has depth 1).
func (g *Graph) Depth() int {
	depth := make([]int, len(g.tasks))
	max := 0
	for _, t := range g.TopoOrder() {
		d := 1
		for _, pr := range g.preds[t] {
			if depth[pr]+1 > d {
				d = depth[pr] + 1
			}
		}
		depth[t] = d
		if d > max {
			max = d
		}
	}
	return max
}

// LevelWidths returns how many tasks sit at each longest-path level —
// a structural parallelism profile of the application.
func (g *Graph) LevelWidths() []int {
	depth := make([]int, len(g.tasks))
	max := 0
	for _, t := range g.TopoOrder() {
		d := 1
		for _, pr := range g.preds[t] {
			if depth[pr]+1 > d {
				d = depth[pr] + 1
			}
		}
		depth[t] = d
		if d > max {
			max = d
		}
	}
	widths := make([]int, max)
	for _, d := range depth {
		widths[d-1]++
	}
	return widths
}

// MaxWidth returns the largest level width — the peak structural
// parallelism available to the mapper.
func (g *Graph) MaxWidth() int {
	max := 0
	for _, w := range g.LevelWidths() {
		if w > max {
			max = w
		}
	}
	return max
}
