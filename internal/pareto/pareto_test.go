package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominatesBasic(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict improvement
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestWeaklyDominates(t *testing.T) {
	if !WeaklyDominates([]float64{1, 1}, []float64{1, 1}) {
		t.Error("equal vectors should weakly dominate")
	}
	if WeaklyDominates([]float64{1, 2}, []float64{2, 1}) {
		t.Error("incomparable vectors should not weakly dominate")
	}
}

func TestDominatesLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

func TestFilterSimpleFront(t *testing.T) {
	pts := [][]float64{
		{1, 5}, // front
		{2, 4}, // front
		{3, 3}, // front
		{3, 4}, // dominated by {3,3} and {2,4}
		{5, 5}, // dominated
	}
	idx := Filter(pts)
	want := []int{0, 1, 2}
	if len(idx) != len(want) {
		t.Fatalf("Filter = %v, want %v", idx, want)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("Filter = %v, want %v", idx, want)
		}
	}
}

func TestFilterDeduplicates(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	if got := Filter(pts); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Filter kept %v, want just the first duplicate", got)
	}
}

func TestFilterEmpty(t *testing.T) {
	if got := Filter(nil); len(got) != 0 {
		t.Fatalf("Filter(nil) = %v, want empty", got)
	}
}

func TestHypervolume2DKnown(t *testing.T) {
	// Single point (1,1) with reference (3,3): area 2*2 = 4.
	hv := Hypervolume([][]float64{{1, 1}}, []float64{3, 3})
	if math.Abs(hv-4) > 1e-12 {
		t.Fatalf("hv = %v, want 4", hv)
	}
	// Staircase {(1,2),(2,1)} vs ref (3,3): 2*1 + 1*... compute: sorted x:
	// (1,2): (3-1)*(3-2)=2 ; (2,1): (3-2)*(2-1)=1 → 3.
	hv = Hypervolume([][]float64{{1, 2}, {2, 1}}, []float64{3, 3})
	if math.Abs(hv-3) > 1e-12 {
		t.Fatalf("hv = %v, want 3", hv)
	}
}

func TestHypervolumeOutsideRef(t *testing.T) {
	hv := Hypervolume([][]float64{{5, 5}}, []float64{3, 3})
	if hv != 0 {
		t.Fatalf("point outside reference box contributed %v", hv)
	}
}

func TestHypervolumeEmpty(t *testing.T) {
	if hv := Hypervolume(nil, []float64{1, 1}); hv != 0 {
		t.Fatalf("hv of empty set = %v, want 0", hv)
	}
}

func TestHypervolume1D(t *testing.T) {
	hv := Hypervolume([][]float64{{2}, {4}}, []float64{10})
	if math.Abs(hv-8) > 1e-12 {
		t.Fatalf("1-D hv = %v, want 8", hv)
	}
}

func TestHypervolume3DKnown(t *testing.T) {
	// Single point (0,0,0), ref (1,1,1): unit cube.
	hv := Hypervolume([][]float64{{0, 0, 0}}, []float64{1, 1, 1})
	if math.Abs(hv-1) > 1e-12 {
		t.Fatalf("3-D hv = %v, want 1", hv)
	}
	// Two disjointly dominating points.
	hv = Hypervolume([][]float64{{0, 0.5, 0.5}, {0.5, 0, 0}}, []float64{1, 1, 1})
	// Point A region: 1*0.5*0.5=0.25; point B: 0.5*1*1=0.5.
	// Overlap: x in (0.5,1), y in (0.5,1), z in (0.5,1) = 0.125.
	want := 0.25 + 0.5 - 0.125
	if math.Abs(hv-want) > 1e-12 {
		t.Fatalf("3-D hv = %v, want %v", hv, want)
	}
}

func TestHypervolume3DAgreesWithMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pts [][]float64
	for i := 0; i < 6; i++ {
		pts = append(pts, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	ref := []float64{1, 1, 1}
	exact := Hypervolume(pts, ref)
	const samples = 200000
	hit := 0
	for s := 0; s < samples; s++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		for _, p := range pts {
			if p[0] <= x[0] && p[1] <= x[1] && p[2] <= x[2] {
				hit++
				break
			}
		}
	}
	mc := float64(hit) / samples
	if math.Abs(exact-mc) > 0.01 {
		t.Fatalf("exact hv %v disagrees with Monte-Carlo %v", exact, mc)
	}
}

func TestReferencePoint(t *testing.T) {
	a := [][]float64{{1, 10}}
	b := [][]float64{{4, 2}}
	ref := ReferencePoint(0.1, a, b)
	if math.Abs(ref[0]-4.4) > 1e-12 || math.Abs(ref[1]-11) > 1e-12 {
		t.Fatalf("ref = %v, want [4.4 11]", ref)
	}
}

func randomPts(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func TestPropertyFilterMutuallyNonDominated(t *testing.T) {
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := int(nRaw%20) + 1
		d := int(dRaw%3) + 2
		rng := rand.New(rand.NewSource(seed))
		pts := randomPts(rng, n, d)
		front := FilterPoints(pts)
		for i := range front {
			for j := range front {
				if i != j && Dominates(front[i], front[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFilterCoverage(t *testing.T) {
	// Every input point must be weakly dominated by some front member.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := randomPts(rng, n, 2)
		front := FilterPoints(pts)
		for _, p := range pts {
			covered := false
			for _, q := range front {
				if WeaklyDominates(q, p) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// quantizedPts draws points on a coarse grid so that exact duplicates and
// per-objective ties occur often — the cases where Filter's tie-breaking
// (first duplicate survives) actually matters.
func quantizedPts(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = float64(rng.Intn(4)) / 4
		}
		pts[i] = p
	}
	return pts
}

func TestPropertyFilterMatchesBruteForce(t *testing.T) {
	// Filter must return exactly the indices the dominance definition
	// demands: i survives iff no point dominates pts[i] and no earlier
	// index holds an identical point. In particular every non-dominated
	// input is represented on the front (by its first occurrence).
	f := func(seed int64, nRaw, dRaw uint8) bool {
		n := int(nRaw%24) + 1
		d := int(dRaw%3) + 2
		rng := rand.New(rand.NewSource(seed))
		pts := quantizedPts(rng, n, d)
		got := Filter(pts)
		gotSet := make(map[int]bool, len(got))
		prev := -1
		for _, i := range got {
			if i <= prev { // original order must be preserved
				return false
			}
			prev = i
			gotSet[i] = true
		}
		for i, p := range pts {
			want := true
			for j, q := range pts {
				if j != i && Dominates(q, p) {
					want = false
					break
				}
				if j < i && equalVec(q, p) {
					want = false
					break
				}
			}
			if want != gotSet[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHypervolumeMonotone(t *testing.T) {
	// Adding a point never decreases hypervolume.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := randomPts(rng, n, 2)
		ref := []float64{1.2, 1.2}
		hv := Hypervolume(pts, ref)
		extra := append(pts, []float64{rng.Float64(), rng.Float64()})
		return Hypervolume(extra, ref)+1e-12 >= hv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHypervolumeFilterInvariant(t *testing.T) {
	// Dominated points contribute nothing: HV(S) == HV(Filter(S)).
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%15) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := randomPts(rng, n, 3)
		ref := []float64{1.1, 1.1, 1.1}
		a := Hypervolume(pts, ref)
		b := Hypervolume(FilterPoints(pts), ref)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHv2DMatchesRecursive(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		rng := rand.New(rand.NewSource(seed))
		pts := randomPts(rng, n, 2)
		ref := []float64{1.5, 1.5}
		fast := Hypervolume(pts, ref)
		slow := hvRecursive(FilterPoints(pts), ref)
		return math.Abs(fast-slow) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSpacing(t *testing.T) {
	// Evenly spaced staircase: spacing 0.
	even := [][]float64{{0, 3}, {1, 2}, {2, 1}, {3, 0}}
	if s := Spacing(even); math.Abs(s) > 1e-12 {
		t.Fatalf("even front spacing = %v, want 0", s)
	}
	// Uneven front: positive spacing.
	uneven := [][]float64{{0, 3}, {0.1, 2.9}, {3, 0}}
	if s := Spacing(uneven); s <= 0 {
		t.Fatalf("uneven front spacing = %v, want > 0", s)
	}
	if Spacing(nil) != 0 || Spacing([][]float64{{1, 1}}) != 0 {
		t.Fatal("degenerate fronts should have zero spacing")
	}
}

func TestIGD(t *testing.T) {
	ref := [][]float64{{0, 1}, {0.5, 0.5}, {1, 0}}
	// Perfect coverage: IGD 0.
	if v := IGD(ref, ref); math.Abs(v) > 1e-12 {
		t.Fatalf("self IGD = %v, want 0", v)
	}
	// A single distant point: IGD equals mean distance to it.
	far := [][]float64{{2, 2}}
	v := IGD(far, ref)
	want := (math.Hypot(2, 1) + math.Hypot(1.5, 1.5) + math.Hypot(1, 2)) / 3
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("IGD = %v, want %v", v, want)
	}
	// A closer front must have lower IGD.
	near := [][]float64{{0.1, 0.9}, {0.9, 0.1}}
	if IGD(near, ref) >= IGD(far, ref) {
		t.Fatal("closer front should have lower IGD")
	}
}

func TestIGDPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty inputs")
		}
	}()
	IGD(nil, [][]float64{{1}})
}

func TestPropertyIGDTriangle(t *testing.T) {
	// Adding points to the front never increases IGD.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		ref := randomPts(rng, 8, 2)
		front := randomPts(rng, n, 2)
		before := IGD(front, ref)
		extended := append(front, randomPts(rng, 3, 2)...)
		return IGD(extended, ref) <= before+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
