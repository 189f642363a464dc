package core

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

	"repro/internal/moea"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/engines_golden.txt from the current strategies")

const enginesGoldenFile = "testdata/engines_golden.txt"

// goldenFront dumps a front bit-exactly, evaluation count included.
func goldenFront(t *testing.T, b *strings.Builder, label string, f *Front) {
	t.Helper()
	fmt.Fprintf(b, "%s evals=%d %s\n", label, f.Evaluations, frontBytes(t, f))
}

// goldenStages dumps every saved stage snapshot and front in key order.
func goldenStages(t *testing.T, b *strings.Builder, ck *memCheckpointer) {
	t.Helper()
	ck.mu.Lock()
	defer ck.mu.Unlock()
	saved := map[string]any{}
	for k, v := range ck.stages {
		saved["stage "+k] = v
	}
	for k, v := range ck.fronts {
		saved["front "+k] = v
	}
	keys := make([]string, 0, len(saved))
	for k := range saved {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		blob, err := json.Marshal(saved[k])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "%s %s\n", k, blob)
	}
}

// TestEnginesGolden pins the strategy layer above both engines byte for
// byte: Proposed on sobel under NSGA-II and MOEA/D with delta evaluation
// on and off (uninterrupted, cancelled at fcCLR generation 3 with its
// stage snapshots, and resumed), the island-mode Proposed (fronts only), and the
// strategies that convert engine results themselves. Regenerate with
// `go test ./internal/core -run TestEnginesGolden -update` only after an
// intended change to the search.
func TestEnginesGolden(t *testing.T) {
	got := map[string]string{}
	record := func(name string, body func(t *testing.T, b *strings.Builder)) {
		t.Run(name, func(t *testing.T) {
			var b strings.Builder
			body(t, &b)
			got[name] = fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
		})
	}
	// Island snapshots at cancellation depend on where each island's
	// goroutine was when the context fired, so only the single-population
	// runs dump their stage snapshots; every resumed front is exact.
	proposed := func(cfg RunConfig) func(t *testing.T, b *strings.Builder) {
		return func(t *testing.T, b *strings.Builder) {
			inst := sobelInstance()
			flib := filteredLib(t, inst)
			ref, err := Proposed(inst, cfg, flib)
			if err != nil {
				t.Fatal(err)
			}
			goldenFront(t, b, "full", ref)

			ck := newMemCheckpointer()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			icfg := cfg
			icfg.Ctx = ctx
			icfg.Checkpoint = ck
			icfg.CheckpointEvery = 2
			icfg.Progress = func(ev ProgressEvent) {
				if ev.Stage == "fcclr" && ev.Generation == 3 {
					cancel()
				}
			}
			if _, err := Proposed(inst, icfg, flib); err == nil {
				t.Fatal("interrupted run returned no error")
			}
			if !cfg.islandMode() {
				goldenStages(t, b, ck)
			}

			rcfg := cfg
			rcfg.Checkpoint = ck
			res, err := Proposed(inst, rcfg, flib)
			if err != nil {
				t.Fatal(err)
			}
			goldenFront(t, b, "resumed", res)
		}
	}
	for name, engine := range map[string]Engine{"nsga2": NSGA2, "moead": MOEAD} {
		for _, noDelta := range []bool{false, true} {
			cfg := RunConfig{Pop: 20, Gens: 8, Seed: 3, Workers: 1, Engine: engine, DisableDelta: noDelta}
			record(fmt.Sprintf("proposed/%s/no-delta=%v", name, noDelta), proposed(cfg))
		}
	}
	record("proposed/islands", proposed(RunConfig{Pop: 20, Gens: 8, Seed: 3, Workers: 1, Islands: 2, MigrationEvery: 2}))
	record("single-layer-fixed", func(t *testing.T, b *strings.Builder) {
		f, err := SingleLayerFixed(sobelInstance(), RunConfig{Pop: 16, Gens: 6, Seed: 9, Workers: 1}, LayerSSW)
		if err != nil {
			t.Fatal(err)
		}
		goldenFront(t, b, "front", f)
	})
	record("fcclr-with-params", func(t *testing.T, b *strings.Builder) {
		params := moea.DefaultParams(16, 6, 13)
		params.Workers = 1
		f, err := FcCLRWithParams(sobelInstance(), params)
		if err != nil {
			t.Fatal(err)
		}
		goldenFront(t, b, "front", f)
	})
	record("random-search", func(t *testing.T, b *strings.Builder) {
		f, err := RandomSearch(sobelInstance(), 200, 17)
		if err != nil {
			t.Fatal(err)
		}
		goldenFront(t, b, "front", f)
	})
	if t.Failed() {
		return
	}
	checkGolden(t, enginesGoldenFile, got)
}

// checkGolden compares the computed fingerprints with the committed
// "name sha256" lines, or rewrites the file under -update.
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
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, test computed %d", len(want), len(got))
	}
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: fingerprint %s, golden %s", name, got[name], want[name])
		}
	}
}
