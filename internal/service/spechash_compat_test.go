package service

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateSpecHashes = flag.Bool("update-spechash", false, "regenerate testdata/spechash/corpus.json from the current code")

// specHashCorpus is the fixed set of legacy JobSpec JSON payloads whose
// normalized sha256 hashes are pinned in testdata/spechash/corpus.json. The
// payloads predate the fault-model fields, so their hashes are the result
// cache keys of every job submitted before this subsystem existed: they must
// never change, or a daemon upgrade would silently invalidate (or worse,
// cross-wire) cached results.
var specHashCorpus = map[string]string{
	"default_sobel":  `{}`,
	"jpeg_moead":     `{"app":"jpeg","engine":"moead","pop":40,"gens":20,"seed":7}`,
	"synthetic_40":   `{"app":"synthetic","tasks":40,"seed":3,"graph_seed":11,"lib_seed":12}`,
	"fcclr_extended": `{"method":"fcclr","catalog":"extended","objectives":["makespan","errprob","lifetime"]}`,
	"pfclr_tdse2":    `{"method":"pfclr","tdse_set":2,"pop":30,"gens":15}`,
	"agnostic_comm":  `{"method":"agnostic","comm_startup_us":4,"comm_per_kb_us":0.5,"enforce_memory":true}`,
	"layer_dvfs":     `{"method":"layer-dvfs","seed":9}`,
	"constraints":    `{"constraints":{"max_makespan_us":500000,"min_functional_rel":0.9}}`,
	"islands":        `{"islands":4,"migration_every":3,"migrants":2,"pop":32}`,
	"surrogate":      `{"surrogate":true,"surrogate_fraction":0.6}`,
	"converge":       `{"converge":true,"converge_window":5,"converge_eps":0.0001}`,
	"graph_text":     `{"graph_text":"@TASK_GRAPH g {\n  PERIOD 1000\n  TASK t0 TYPE 0\n  TASK t1 TYPE 1\n  ARC a0 FROM t0 TO t1\n}\n","seed":4}`,
	"no_delta":       `{"no_delta":true,"engine":"nsga2","app":"sobel"}`,
}

// removedCorpusEntries names corpus entries whose spec sets a field JobSpec
// no longer has (surrogate screening was removed). Their pinned hashes
// record the old cache keys; strict decoding must now reject the spec, so
// such a job can never be served or recovered under a different
// computation.
var removedCorpusEntries = map[string]bool{"surrogate": true}

type specHashEntry struct {
	Spec string `json:"spec"`
	Hash string `json:"hash"`
}

func corpusPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "spechash", "corpus.json")
}

func normalizeCorpusSpec(t *testing.T, name, raw string) *JobSpec {
	t.Helper()
	var spec JobSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatalf("%s: decoding: %v", name, err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatalf("%s: normalizing: %v", name, err)
	}
	return &spec
}

// TestSpecHashBackwardCompat pins sha256(normalized spec) for a corpus of
// pre-fault-model JobSpecs: adding new optional fields must leave every
// legacy hash byte-identical (the omitempty pattern), because the hash is
// the shared result-cache key across daemon, gateway and fleet tiers.
func TestSpecHashBackwardCompat(t *testing.T) {
	path := corpusPath(t)
	if *updateSpecHashes {
		out := make(map[string]specHashEntry, len(specHashCorpus))
		for name, raw := range specHashCorpus {
			if !removedCorpusEntries[name] {
				out[name] = specHashEntry{Spec: raw, Hash: normalizeCorpusSpec(t, name, raw).Hash()}
			}
		}
		// Removed entries keep their pinned record: it cannot be
		// recomputed.
		if old, err := os.ReadFile(path); err == nil {
			var pinned map[string]specHashEntry
			if err := json.Unmarshal(old, &pinned); err != nil {
				t.Fatal(err)
			}
			for name := range removedCorpusEntries {
				out[name] = pinned[name]
			}
		}
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", path, len(out))
		return
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading pinned corpus (regenerate with -update-spechash): %v", err)
	}
	var pinned map[string]specHashEntry
	if err := json.Unmarshal(blob, &pinned); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	if len(pinned) != len(specHashCorpus) {
		t.Fatalf("pinned corpus has %d entries, want %d", len(pinned), len(specHashCorpus))
	}
	names := make([]string, 0, len(specHashCorpus))
	for name := range specHashCorpus {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s: missing from pinned corpus", name)
			continue
		}
		if want.Spec != specHashCorpus[name] {
			t.Errorf("%s: pinned spec text drifted; regenerate with -update-spechash", name)
			continue
		}
		if removedCorpusEntries[name] {
			if err := decodeStrict(strings.NewReader(want.Spec), new(JobSpec)); err == nil {
				t.Errorf("%s: strict decoding accepted a spec with a removed field", name)
			}
			continue
		}
		got := normalizeCorpusSpec(t, name, specHashCorpus[name]).Hash()
		if got != want.Hash {
			t.Errorf("%s: hash %s, want pinned %s — legacy result-cache keys changed", name, got, want.Hash)
		}
	}
}

// TestSpecHashNewFieldsDistinct is the other half of the cache-key contract:
// a spec that actually sets one of the fault-model fields must hash
// differently from its legacy counterpart (distinct computations must not
// share cached results), while degraded forms of the new fields (empty
// model, default platform names) must collapse back onto the legacy hash.
func TestSpecHashNewFieldsDistinct(t *testing.T) {
	legacy := normalizeCorpusSpec(t, "base", `{}`).Hash()
	for name, raw := range map[string]string{
		"platform_fpga": `{"platform":"fpga"}`,
		"faults":        `{"faults":{"default":{"transient_scale":10}}}`,
		"faults_perm":   `{"faults":{"default":{"permanent_per_hour":50,"repair_prob":0.5}}}`,
		"ckpt":          `{"method":"pfclr","ckpt_modes":true}`,
		"ckpt_iv":       `{"method":"pfclr","ckpt_modes":true,"ckpt_intervals":[1,4]}`,
	} {
		if got := normalizeCorpusSpec(t, name, raw).Hash(); got == legacy {
			t.Errorf("%s: hashes like the legacy spec — distinct computations would share cache entries", name)
		}
	}
	// pfclr with the default checkpoint axis must differ from plain pfclr.
	plain := normalizeCorpusSpec(t, "pfclr", `{"method":"pfclr"}`).Hash()
	withCk := normalizeCorpusSpec(t, "pfclr_ck", `{"method":"pfclr","ckpt_modes":true}`).Hash()
	if plain == withCk {
		t.Error("ckpt_modes did not change the pfclr hash")
	}
	for name, raw := range map[string]string{
		"platform_default": `{"platform":"default"}`,
		"platform_hmpsoc":  `{"platform":"HMPSoC"}`,
		"faults_empty":     `{"faults":{}}`,
		"ckpt_on_fcclr":    `{"method":"fcclr","ckpt_modes":true}`,
	} {
		spec := normalizeCorpusSpec(t, name, raw)
		var legacyEquivalent string
		switch name {
		case "ckpt_on_fcclr":
			legacyEquivalent = normalizeCorpusSpec(t, name, `{"method":"fcclr"}`).Hash()
		default:
			legacyEquivalent = legacy
		}
		if got := spec.Hash(); got != legacyEquivalent {
			t.Errorf("%s: degraded form hashes %s, want legacy %s", name, got, legacyEquivalent)
		}
	}
}

// TestSpecFaultFieldValidation covers the Normalize rules of the new knobs.
func TestSpecFaultFieldValidation(t *testing.T) {
	for name, raw := range map[string]string{
		"bad_platform":  `{"platform":"asic"}`,
		"bad_faults":    `{"faults":{"default":{"transient_scale":-1}}}`,
		"bad_repair":    `{"faults":{"default":{"repair_prob":0.5}}}`,
		"iv_without":    `{"method":"pfclr","ckpt_intervals":[2]}`,
		"iv_zero":       `{"method":"pfclr","ckpt_modes":true,"ckpt_intervals":[0]}`,
		"iv_over_cap":   `{"method":"pfclr","ckpt_modes":true,"ckpt_intervals":[17]}`,
		"unknown_fault": `{"faults":{"defualt":{}}}`,
	} {
		var spec JobSpec
		if err := json.Unmarshal([]byte(raw), &spec); err != nil {
			continue // strict Model decoding rejected it before Normalize
		}
		if err := spec.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted %s", name, raw)
		}
	}
}
