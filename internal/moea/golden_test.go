package moea

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/engines_golden.txt from the current engines")

const enginesGoldenFile = "testdata/engines_golden.txt"

// goldenDump accumulates everything one engine configuration emits; its
// SHA-256 is the committed fingerprint.
type goldenDump struct {
	t *testing.T
	b strings.Builder
}

func (d *goldenDump) add(label string, v any) {
	d.t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		d.t.Fatal(err)
	}
	fmt.Fprintf(&d.b, "%s %s\n", label, blob)
}

func (d *goldenDump) sum() string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(d.b.String())))
}

// readGolden parses "name sha256" lines.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			out[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkGolden compares the computed fingerprints with the committed file,
// or rewrites the file under -update.
func checkGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateGolden {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, path)
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, test computed %d", len(want), len(got))
	}
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: fingerprint %s, golden %s", name, got[name], want[name])
		}
	}
}

// goldenRun runs one engine configuration three times — uninterrupted with
// periodic checkpoints, cancelled at generation 5, and resumed from the
// cancellation snapshot — and dumps the result, every progress report and
// every snapshot.
func goldenRun(t *testing.T, d *goldenDump, run engineFn, p Problem, params Params, seeds []*Genome) {
	t.Helper()
	params.Workers = 1
	params.CheckpointEvery = 4

	full := params
	full.OnGeneration = func(gi GenerationInfo) { d.add("gen", gi) }
	full.OnCheckpoint = func(cp *Checkpoint) { d.add("checkpoint", cp) }
	res, err := run(p, full, seeds)
	if err != nil {
		t.Fatal(err)
	}
	d.add("result", goldenResult{res, params.Generations, false})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Checkpoint
	cut := params
	cut.Ctx = ctx
	cut.OnGeneration = func(gi GenerationInfo) {
		if gi.Generation == 5 {
			cancel()
		}
	}
	cut.OnCheckpoint = func(cp *Checkpoint) { last = cp }
	if _, err := run(p, cut, seeds); err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if last == nil || last.Generation != 5 {
		t.Fatalf("cancel snapshot %+v, want generation 5", last)
	}
	d.add("cancel", last)

	resumed := params
	resumed.Resume = last
	res, err = run(p, resumed, seeds)
	if err != nil {
		t.Fatal(err)
	}
	d.add("resumed", goldenResult{res, params.Generations, false})
}

// goldenResult is the dump layout of a Result that the committed
// fingerprints pin. Its last two fields are the generations run and the
// early-stop flag that Result carried while runs could stop early; every
// run now spends its full budget, so they are constant.
type goldenResult struct {
	*Result
	GenerationsRun int
	PlateauStopped bool
}

// TestEnginesGolden pins both engines byte for byte: for each
// configuration the SHA-256 of the result, every GenerationInfo, every
// periodic checkpoint, the cancel-at-generation-5 snapshot and the
// resumed result must match testdata/engines_golden.txt. Regenerate with
// `go test ./internal/moea -run TestEnginesGolden -update` only after an
// intended change to the search.
func TestEnginesGolden(t *testing.T) {
	zdt := &zdtProblem{n: 8, levels: 16}
	seed := &Genome{Order: []int{0, 1, 2, 3, 4, 5, 6, 7}, Genes: make([]Gene, 8)}
	seed2 := &Genome{Order: []int{7, 6, 5, 4, 3, 2, 1, 0}, Genes: make([]Gene, 8)}
	for i := range seed2.Genes {
		seed2.Genes[i].Impl = int32(15 - i)
	}
	cases := []struct {
		name    string
		problem Problem
		seeds   []*Genome
		tweak   func(*Params)
	}{
		{name: "plain", problem: zdt},
		{name: "seeded", problem: zdt, seeds: []*Genome{seed, seed2}},
		{name: "operators-off", problem: zdt, tweak: func(p *Params) {
			p.DisableConfigCrossover = true
			p.DisableOrderCrossover = true
			p.DisableOrderMutation = true
		}},
		{name: "constrained", problem: &constrainedProblem{zdtProblem{n: 8, levels: 16}}},
	}
	got := map[string]string{}
	for _, tc := range cases {
		for _, engine := range testEngines {
			name := engine.name + "/" + tc.name
			t.Run(name, func(t *testing.T) {
				params := DefaultParams(16, 12, 5)
				if tc.tweak != nil {
					tc.tweak(&params)
				}
				d := &goldenDump{t: t}
				goldenRun(t, d, engine.run, tc.problem, params, tc.seeds)
				got[name] = d.sum()
			})
		}
	}
	if t.Failed() {
		return
	}
	checkGolden(t, enginesGoldenFile, got)
}
