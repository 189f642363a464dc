package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("10, 20,30")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("parseSizes = %v", got)
	}
	if _, err := parseSizes("10,x"); err == nil {
		t.Error("non-numeric size accepted")
	}
	if _, err := parseSizes("0"); err == nil {
		t.Error("zero size accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "fig6a"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== fig6a") || !strings.Contains(out, "Fig. 6(a)") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if strings.Contains(out, "TABLE IV") {
		t.Fatal("unselected experiment ran")
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "fig6b,table4", "-seed", "3"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 6(b)") || !strings.Contains(out, "TABLE IV") {
		t.Fatalf("missing selected experiments:\n%s", out)
	}
}

func TestRunTableWithCustomSizes(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "table6", "-sizes", "10", "-pop", "16", "-gens", "6"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TABLE VI") {
		t.Fatal("missing TABLE VI output")
	}
}

func TestRunWithJobs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "fig9", "-jobs", "4"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 9") {
		t.Fatal("missing Fig. 9 output")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig99"}, &buf, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadSizes(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-sizes", "abc"}, &buf, io.Discard); err == nil {
		t.Fatal("bad sizes accepted")
	}
}

func TestRunJSONExport(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/results.json"
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "table4", "-json", path}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := decoded["table4"]; !ok {
		t.Fatal("JSON missing table4 result")
	}
}
