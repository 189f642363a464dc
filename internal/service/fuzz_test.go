package service

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// normalizeSeeds are FuzzNormalize's seed inputs; FuzzValidateBuilds reuses
// their blobs.
var normalizeSeeds = []struct {
	blob                            string
	commStartup, commPerKB, minFRel float64
	seed                            int64
	tasks                           int
}{
	{`{}`, 0.0, 0.0, 0.0, 1, 0},
	{`{"app":"synthetic","tasks":12,"method":"fcclr","graph_seed":77,"lib_seed":88}`, 1.5, 0.25, 0.9, 7, 30},
	{`{"method":"layer-dvfs","engine":"moead","catalog":"extended"}`, 0.0, 0.0, 0.0, 3, 0},
	{`{"method":"pfclr","tdse_set":2,"objectives":["makespan","energy","power"]}`, 0.0, 0.0, 0.0, 5, 0},
	{`{"graph_text":"@TASK_GRAPH g {\nPERIOD 10\nTASK a TYPE 0 CRITICALITY 1\n}"}`, 0.0, 0.0, 0.0, 2, 4},
	{`{"jobs":-3,"pop":2,"gens":1}`, 0.0, 0.0, 0.0, -9, -5},
	{`not json at all`, math.NaN(), math.Inf(1), math.Inf(-1), 0, 0},
}

// FuzzNormalize exercises the JobSpec normalizer with arbitrary JSON blobs
// and float knobs. The contract under fuzzing:
//
//   - Normalize never panics, whatever the input;
//   - a spec Normalize accepts can always be hashed (Hash panics on
//     unmarshalable values, so NaN/Inf knobs must be rejected up front);
//   - Normalize is idempotent: normalizing an already-normalized spec
//     changes nothing, so the cache key is stable however often a spec
//     crosses a process boundary.
func FuzzNormalize(f *testing.F) {
	for _, sd := range normalizeSeeds {
		f.Add(sd.blob, sd.commStartup, sd.commPerKB, sd.minFRel, sd.seed, sd.tasks)
	}
	f.Fuzz(func(t *testing.T, blob string, commStartup, commPerKB, minFRel float64, seed int64, tasks int) {
		var s JobSpec
		// Malformed JSON just leaves a partially-filled spec — Normalize
		// must cope with whatever state results.
		_ = json.Unmarshal([]byte(blob), &s)
		s.CommStartupUS = commStartup
		s.CommPerKBUS = commPerKB
		s.Constraints.MinFunctionalRel = minFRel
		s.Seed = seed
		s.Tasks = tasks
		if err := s.Normalize(); err != nil {
			return
		}
		h := s.Hash() // must not panic on any accepted spec
		again := s
		if err := again.Normalize(); err != nil {
			t.Fatalf("re-normalizing an accepted spec failed: %v", err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("Normalize not idempotent:\nfirst  %+v\nsecond %+v", s, again)
		}
		if again.Hash() != h {
			t.Fatalf("hash changed across re-normalization: %s vs %s", h, again.Hash())
		}
	})
}

// FuzzValidateBuilds holds the admission contract: a spec that passes the
// intake's strict decode, Normalize and Validate must Build — library
// included — without error, so no job the surfaces accept fails in
// tdse.Build. Seeds: FuzzNormalize's blobs, the spec-hash corpus, the
// committed tgffgen suite specs, and specs on both sides of the
// permanent-fault exposure bound.
func FuzzValidateBuilds(f *testing.F) {
	for _, sd := range normalizeSeeds {
		f.Add(sd.blob)
	}
	for _, raw := range specHashCorpus {
		f.Add(raw)
	}
	suite, err := filepath.Glob("../../cmd/tgffgen/testdata/suite/*.job.json")
	if err != nil || len(suite) == 0 {
		f.Fatalf("no tgffgen suite specs found (%v)", err)
	}
	for _, path := range suite {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Add(`{"method":"pfclr","app":"synthetic","tasks":8,"faults":{"default":{"permanent_per_hour":1e11,"repair_prob":1}}}`)
	f.Add(`{"method":"pfclr","app":"synthetic","tasks":8,"ckpt_modes":true,"faults":{"default":{"permanent_per_hour":2.5e5,"repair_prob":1}}}`)
	f.Add(`{"method":"proposed","platform":"fpga","catalog":"fpga","faults":{"default":{"transient_scale":1e300,"intermittent_per_sec":1e300,"intermittent_burst":1e300}}}`)
	f.Fuzz(func(t *testing.T, blob string) {
		var s JobSpec
		if DecodeStrict(strings.NewReader(blob), &s) != nil || s.Normalize() != nil {
			return
		}
		if _, err := Validate(&s); err != nil {
			return
		}
		if _, _, err := Build(&s); err != nil {
			t.Fatalf("Validate accepted a spec Build rejects: %v\nspec: %s", err, blob)
		}
	})
}
