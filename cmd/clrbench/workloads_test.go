package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// specHashes lists the spec hashes of a workload's first two rounds, or of
// its whole fleet schedule (with arrival offsets).
func specHashes(t *testing.T, w workload, seed int64) []string {
	t.Helper()
	var out []string
	if w.fleet != nil {
		sch, err := buildFleetSchedule(seed, 20, *w.fleet)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range sch.arrivals {
			out = append(out, fmt.Sprintf("%d:%s", a.offset, a.hash))
		}
		return append(out, sch.warmup.Hash())
	}
	for r := 0; r < 2; r++ {
		specs, err := w.round(seed, r)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			out = append(out, specs[i].Hash())
		}
	}
	return out
}

func TestSeedsDetermineInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := specHashes(t, w, 1), specHashes(t, w, 1), specHashes(t, w, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds generated different spec hashes", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same spec hashes", w.name)
		}
		seen := make(map[string]bool)
		for _, h := range a {
			if seen[h] && w.fleet == nil {
				t.Errorf("%s: spec hash %s repeats within the first rounds", w.name, h)
			}
			seen[h] = true
		}
	}
}

func TestFaultsSuiteMatchesCorpus(t *testing.T) {
	blob, err := os.ReadFile("../tgffgen/testdata/suite/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Seed int64 `json:"seed"`
		Apps []struct {
			Class    string `json:"class"`
			SpecHash string `json:"spec_hash"`
		} `json:"apps"`
	}
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	specs, err := faultsSuiteRound(man.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(man.Apps) {
		t.Fatalf("round has %d apps, the corpus %d", len(specs), len(man.Apps))
	}
	for i, app := range man.Apps {
		if got := specs[i].Hash(); got != app.SpecHash {
			t.Errorf("app %d (%s): spec hash %s, corpus has %s", i, app.Class, got, app.SpecHash)
		}
	}
}

func TestFleetScheduleShape(t *testing.T) {
	fc := defaultFleet
	sch, err := buildFleetSchedule(7, 20, fc)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(fc.rate * 20); len(sch.arrivals) != want {
		t.Fatalf("%d arrivals, want %d", len(sch.arrivals), want)
	}
	first := make(map[string]int)
	repeats := 0
	for k, a := range sch.arrivals {
		if k > 0 && a.offset < sch.arrivals[k-1].offset {
			t.Fatalf("arrival %d out of order", k)
		}
		if !a.repeat {
			if _, dup := first[a.hash]; dup {
				t.Fatalf("new arrival %d repeats spec %s", k, a.hash)
			}
			first[a.hash] = k
			continue
		}
		repeats++
		src, ok := first[a.hash]
		if !ok || a.offset-sch.arrivals[src].offset < fc.repeatAfter {
			t.Errorf("repeat %d re-sends %s too early or unseen", k, a.hash)
		}
	}
	if repeats == 0 {
		t.Errorf("no repeats in a 20 s schedule")
	}
	if len(sch.sample) != fc.samples {
		t.Errorf("%d sampled specs, want %d", len(sch.sample), fc.samples)
	}
	for _, k := range sch.sample {
		if sch.arrivals[k].repeat {
			t.Errorf("sampled arrival %d is a repeat", k)
		}
	}
}
