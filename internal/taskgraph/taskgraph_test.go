package taskgraph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func chain(n int) *Graph {
	b := NewBuilder("chain", 100)
	for i := 0; i < n; i++ {
		b.AddTask("t", 0, 1)
	}
	for i := 0; i < n-1; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

// tasksOfType returns the IDs of tasks with the given type.
func tasksOfType(g *Graph, taskType int) []int {
	var out []int
	for t := 0; t < g.NumTasks(); t++ {
		if g.Task(t).Type == taskType {
			out = append(out, t)
		}
	}
	return out
}

func TestBuilderBasics(t *testing.T) {
	g := chain(3)
	if g.NumTasks() != 3 {
		t.Fatalf("NumTasks = %d, want 3", g.NumTasks())
	}
	if g.NumTypes() != 1 {
		t.Fatalf("NumTypes = %d, want 1", g.NumTypes())
	}
	if len(g.Edges()) != 2 {
		t.Fatalf("edges = %d, want 2", len(g.Edges()))
	}
	if got := g.Preds(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Preds(1) = %v", got)
	}
	if got := g.Succs(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Succs(1) = %v", got)
	}
}

func TestBuildErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := NewBuilder("e", 1).Build(); err == nil {
			t.Fatal("expected error for empty graph")
		}
	})
	t.Run("bad period", func(t *testing.T) {
		b := NewBuilder("p", 0)
		b.AddTask("t", 0, 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for zero period")
		}
	})
	t.Run("bad criticality", func(t *testing.T) {
		b := NewBuilder("c", 1)
		b.AddTask("t", 0, 0)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for zero criticality")
		}
	})
	t.Run("negative type", func(t *testing.T) {
		b := NewBuilder("ty", 1)
		b.AddTask("t", -1, 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for negative type")
		}
	})
	t.Run("edge out of range", func(t *testing.T) {
		b := NewBuilder("er", 1)
		b.AddTask("t", 0, 1)
		b.AddEdge(0, 5)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for dangling edge")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		b := NewBuilder("sl", 1)
		b.AddTask("t", 0, 1)
		b.AddEdge(0, 0)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for self loop")
		}
	})
	t.Run("duplicate edge", func(t *testing.T) {
		b := NewBuilder("de", 1)
		b.AddTask("a", 0, 1)
		b.AddTask("b", 0, 1)
		b.AddEdge(0, 1)
		b.AddEdge(0, 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for duplicate edge")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		b := NewBuilder("cy", 1)
		b.AddTask("a", 0, 1)
		b.AddTask("b", 0, 1)
		b.AddEdge(0, 1)
		b.AddEdge(1, 0)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for cycle")
		}
	})
}

func TestTopoOrderChain(t *testing.T) {
	g := chain(5)
	order := g.TopoOrder()
	for i, v := range order {
		if v != i {
			t.Fatalf("TopoOrder = %v, want identity", order)
		}
	}
	if !g.IsValidTopo(order) {
		t.Fatal("TopoOrder not valid by IsValidTopo")
	}
}

func TestIsValidTopoRejects(t *testing.T) {
	g := chain(3)
	if g.IsValidTopo([]int{2, 1, 0}) {
		t.Fatal("reversed chain accepted")
	}
	if g.IsValidTopo([]int{0, 1}) {
		t.Fatal("short permutation accepted")
	}
	if g.IsValidTopo([]int{0, 0, 1}) {
		t.Fatal("repeated task accepted")
	}
	if g.IsValidTopo([]int{0, 1, 5}) {
		t.Fatal("out-of-range task accepted")
	}
}

func TestNormalizedCriticality(t *testing.T) {
	b := NewBuilder("nc", 1)
	b.AddTask("a", 0, 1)
	b.AddTask("b", 0, 3)
	g := b.MustBuild()
	z := g.NormalizedCriticality()
	if math.Abs(z[0]-0.25) > 1e-12 || math.Abs(z[1]-0.75) > 1e-12 {
		t.Fatalf("zeta = %v, want [0.25 0.75]", z)
	}
	sum := 0.0
	for _, v := range z {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("zeta sums to %v", sum)
	}
}

func TestTasksOfType(t *testing.T) {
	g := Sobel()
	grads := tasksOfType(g, SobelSobGrad)
	if len(grads) != 2 {
		t.Fatalf("SobGrad tasks = %v, want 2", grads)
	}
}

func TestSobelStructure(t *testing.T) {
	g := Sobel()
	if g.NumTasks() != 5 {
		t.Fatalf("Sobel has %d tasks, want 5", g.NumTasks())
	}
	if len(g.Edges()) != 5 {
		t.Fatalf("Sobel has %d edges, want 5", len(g.Edges()))
	}
	if g.NumTypes() != SobelNumTypes {
		t.Fatalf("Sobel has %d types, want %d", g.NumTypes(), SobelNumTypes)
	}
	// CombThr is the join: two predecessors.
	if got := g.Preds(4); len(got) != 2 {
		t.Fatalf("CombThr preds = %v, want 2", got)
	}
	if !g.IsValidTopo(g.TopoOrder()) {
		t.Fatal("Sobel topological order invalid")
	}
}

func TestTaskAccessor(t *testing.T) {
	g := Sobel()
	if g.Task(0).Name != "GScale" {
		t.Fatalf("Task(0) = %v", g.Task(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad task index")
		}
	}()
	g.Task(99)
}

func TestAccessorsReturnCopies(t *testing.T) {
	g := Sobel()
	g.Tasks()[0].Name = "mutated"
	if g.Task(0).Name != "GScale" {
		t.Fatal("Tasks() exposes internal storage")
	}
}

// Preds, Succs, Edges and NormalizedCriticality return shared read-only
// views (see their doc comments) so the scheduler's hot path does not copy
// per call; repeated calls must be stable and alias the same storage.
func TestSharedViewAccessorsStable(t *testing.T) {
	g := Sobel()
	if a, b := g.Preds(4), g.Preds(4); len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("Preds should return the shared internal view")
	}
	if a, b := g.Succs(1), g.Succs(1); len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("Succs should return the shared internal view")
	}
	if a, b := g.Edges(), g.Edges(); len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("Edges should return the shared internal view")
	}
	if a, b := g.NormalizedCriticality(), g.NormalizedCriticality(); len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("NormalizedCriticality should return the precomputed shared view")
	}
}

// TestAdjacencyMatchesEdges checks the flat adjacency against the edge
// list it is built from: with the edges added in random order and random
// data volumes, each task's predecessors (with their volumes) and
// successors are the edges into and out of it, in edge order. An append
// to a returned view must not reach the next task's entries.
func TestAdjacencyMatchesEdges(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("rand", 100)
		for i := 0; i < n; i++ {
			b.AddTask("t", 0, 1)
		}
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, Edge{From: i, To: j, DataKB: rng.Float64() * 64})
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			b.AddEdgeData(e.From, e.To, e.DataKB)
		}
		g := b.MustBuild()
		adj := g.Adjacency()
		for v := 0; v < n; v++ {
			var preds, succs []int
			var kb []float64
			for _, e := range edges {
				if e.To == v {
					preds = append(preds, e.From)
					kb = append(kb, e.DataKB)
				}
				if e.From == v {
					succs = append(succs, e.To)
				}
			}
			lo, hi := adj.PredStart[v], adj.PredStart[v+1]
			if !slices.Equal(g.Preds(v), preds) || !slices.Equal(adj.Pred[lo:hi], preds) ||
				!slices.Equal(adj.PredKB[lo:hi], kb) || !slices.Equal(g.Succs(v), succs) ||
				!slices.Equal(adj.Succ[adj.SuccStart[v]:adj.SuccStart[v+1]], succs) {
				return false
			}
		}
		if n > 1 {
			next := slices.Clone(g.Preds(1))
			_ = append(g.Preds(0), 99)
			if !slices.Equal(g.Preds(1), next) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomDAG builds a random layered DAG that is valid by construction.
func randomDAG(rng *rand.Rand, n int) *Graph {
	b := NewBuilder("rand", 100)
	for i := 0; i < n; i++ {
		b.AddTask("t", rng.Intn(3), 1+rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustBuild()
}

func TestPropertyTopoOrderValid(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, n)
		return g.IsValidTopo(g.TopoOrder())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCriticalitySumsToOne(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, n)
		sum := 0.0
		for _, z := range g.NormalizedCriticality() {
			if z <= 0 {
				return false
			}
			sum += z
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPredsSuccsConsistent(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%15) + 2
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, n)
		for u := 0; u < g.NumTasks(); u++ {
			for _, v := range g.Succs(u) {
				found := false
				for _, p := range g.Preds(v) {
					if p == u {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestJPEGStructure(t *testing.T) {
	g := JPEG()
	if g.NumTasks() != 9 {
		t.Fatalf("JPEG has %d tasks, want 9", g.NumTasks())
	}
	if g.NumTypes() != JPEGNumTypes {
		t.Fatalf("JPEG has %d types, want %d", g.NumTypes(), JPEGNumTypes)
	}
	if len(g.Edges()) != 10 {
		t.Fatalf("JPEG has %d edges, want 10", len(g.Edges()))
	}
	// Three parallel DCT branches.
	if got := len(tasksOfType(g, JPEGDCT)); got != 3 {
		t.Fatalf("JPEG has %d DCT tasks, want 3", got)
	}
	// ZigZag joins three quantizers.
	zz := tasksOfType(g, JPEGZigZagRLE)[0]
	if len(g.Preds(zz)) != 3 {
		t.Fatalf("ZigZag has %d predecessors, want 3", len(g.Preds(zz)))
	}
	if !g.IsValidTopo(g.TopoOrder()) {
		t.Fatal("JPEG topological order invalid")
	}
	for _, e := range g.Edges() {
		if e.DataKB <= 0 {
			t.Fatal("JPEG edges must carry data volumes")
		}
	}
}

func TestDepthAndWidths(t *testing.T) {
	g := Sobel() // GScale → GSmth → {SobGradX,SobGradY} → CombThr
	if g.Depth() != 4 {
		t.Fatalf("Sobel depth %d, want 4", g.Depth())
	}
	widths := g.LevelWidths()
	want := []int{1, 1, 2, 1}
	if len(widths) != len(want) {
		t.Fatalf("widths %v, want %v", widths, want)
	}
	for i := range want {
		if widths[i] != want[i] {
			t.Fatalf("widths %v, want %v", widths, want)
		}
	}
	if g.MaxWidth() != 2 {
		t.Fatalf("Sobel max width %d, want 2", g.MaxWidth())
	}
	// A chain has depth n, width 1 everywhere.
	c := chain(5)
	if c.Depth() != 5 || c.MaxWidth() != 1 {
		t.Fatalf("chain depth/width = %d/%d", c.Depth(), c.MaxWidth())
	}
}

func TestPropertyDepthWidthConsistent(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%25) + 1
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, n)
		widths := g.LevelWidths()
		if len(widths) != g.Depth() {
			return false
		}
		total := 0
		for _, w := range widths {
			if w < 1 {
				return false
			}
			total += w
		}
		return total == g.NumTasks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
