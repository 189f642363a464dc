package tdse_test

import (
	"testing"

	"repro/internal/characterize"
	"repro/internal/faultmodel"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/tdse"
)

// FuzzExploreMatchesFilter holds the screen's contract under arbitrary
// fault models, checkpoint axes, objective sets and implicit-masking
// overrides: Explore returns Filter(Enumerate(...)) bit for bit, or the
// same error. The fault-model rates are taken as given, invalid ones
// included, so the fuzzer also drives the screen's fallback to the full
// path. ckpt selects the checkpoint axis: bit 4 turns it on, bits 0–3
// pick the intervals 1, 2, 4 and 8; bit 7 drops the fault model.
func FuzzExploreMatchesFilter(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, uint8(0x80), uint8(0), -1.0, uint8(0))
	f.Add(1.0, 0.0, 80.0, 0.6, 80.0, uint8(0x13), uint8(2), -1.0, uint8(1))
	f.Add(50.0, 0.25, 1e4, 0.9, 500.0, uint8(0x1f), uint8(7), 0.1, uint8(2))
	f.Add(1.0, 0.0, 3.6e7, 1.0, 10.0, uint8(0x00), uint8(4), 0.2, uint8(0))
	f.Add(-1.0, 0.0, 0.0, 0.0, 0.0, uint8(0x11), uint8(1), -1.0, uint8(0))
	p := platform.Default()
	lib := characterize.Synthetic(p, characterize.DefaultSyntheticConfig(3), 42)
	cat := relmodel.DefaultCatalog()
	sets := allObjectiveSets()
	f.Fuzz(func(t *testing.T, transient, intermittent, perm, repair, repairTime float64,
		ckpt, set uint8, override float64, taskType uint8) {
		opt := tdse.DefaultOptions()
		if ckpt&0x80 == 0 {
			opt.Faults = &faultmodel.Model{Default: faultmodel.FaultModel{
				TransientScale: transient, IntermittentPerSec: intermittent,
				PermanentPerHour: perm, RepairProb: repair, RepairTimeUS: repairTime,
			}}
		}
		if ckpt&0x10 != 0 {
			var intervals []int
			for bit, n := range []int{1, 2, 4, 8} {
				if ckpt&(1<<bit) != 0 {
					intervals = append(intervals, n)
				}
			}
			opt.Checkpoints = tdse.CheckpointAxis(intervals)
		}
		opt.ImplicitMaskingOverride = override
		objs := sets[int(set)%len(sets)]
		tt := int(taskType) % lib.NumTypes()

		all, wantErr := tdse.Enumerate(lib, tt, p, cat, opt)
		got, gotErr := tdse.Explore(lib, tt, p, cat, opt, objs)
		if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
			t.Fatalf("Explore error %v, Enumerate error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if ok, diff := sameLibrary(got, tdse.Filter(all, objs)); !ok {
			t.Fatalf("Explore differs from Filter(Enumerate): %s", diff)
		}
	})
}
