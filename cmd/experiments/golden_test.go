package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the committed experiment goldens")

// legacyQuickExperiments is the full pre-fault-subsystem experiment list in
// registry order — everything -run all covered before ext-fpga existed.
const legacyQuickExperiments = "fig6a,fig6b,table4,fig7,table5,fig8,table6,fig9,fig10,table7," +
	"ablation-seeding,ablation-operators,ablation-comm,ablation-engine,ablation-heft," +
	"ext-scenario,ext-memory"

func goldenPath(name string) string { return filepath.Join("..", "..", "testdata", name) }

func runGolden(t *testing.T, name string, args []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath(name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath(name))
		return
	}
	want, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gl, wl := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output diverges from %s at line %d:\n got: %q\nwant: %q", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output length differs from %s: got %d lines, want %d", name, len(gl), len(wl))
	}
}

// TestQuickLegacyGolden is the backward-compatibility gate of the
// fault-model subsystem: with every new axis off, the entire legacy quick
// experiment suite must stay byte-identical to the front captured before
// the subsystem existed. This golden is deliberately never regenerated.
func TestQuickLegacyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite in -short mode")
	}
	if *updateGolden {
		t.Skip("quick_pr10.golden is the pre-subsystem baseline and must not be rewritten")
	}
	runGolden(t, "quick_pr10.golden",
		[]string{"-quick", "-timing=false", "-run", legacyQuickExperiments})
}

// TestExtFPGAGolden pins the committed front of the FPGA fault-model
// extension study: three proposed-DSE regimes (SEU-only, combined
// transient+permanent, combined plus checkpoint axis) at the quick budget.
func TestExtFPGAGolden(t *testing.T) {
	runGolden(t, "ext_fpga_quick.golden",
		[]string{"-quick", "-timing=false", "-run", "ext-fpga"})
}
