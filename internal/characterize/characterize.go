// Package characterize supplies per-task-type implementation
// characterizations: cycle counts and average power per (task type, PE type)
// pair, plus the system-software stack of each implementation.
//
// The paper obtains these numbers from Gem5 (cycles) and McPAT (power) runs
// of each task type. Those simulators are not reproducible offline, so this
// package substitutes deterministic synthetic characterizations drawn from
// realistic embedded ranges (hundreds of microseconds at 900 MHz, around a
// watt per core). The DSE machinery only ever consumes (cycles, power,
// implicit-masking) tuples, so any consistent source exercises identical
// code paths; see DESIGN.md §3.
package characterize

import (
	"fmt"
	"math/rand"

	"repro/internal/platform"
	"repro/internal/relmodel"
)

// Library holds the implementation sets of every task type of an
// application: Impl_t of §III.B, before any CLR configuration is applied.
type Library struct {
	impls [][]relmodel.Impl // indexed by task type
}

// NumTypes returns the number of task types covered.
func (l *Library) NumTypes() int { return len(l.impls) }

// Impls returns the base implementations of the given task type as an
// owned copy.
func (l *Library) Impls(taskType int) []relmodel.Impl {
	return append([]relmodel.Impl(nil), l.ImplsShared(taskType)...)
}

// ImplsShared returns the implementations of the given task type as a
// shared read-only view — the allocation-free accessor for hot paths
// (genome decoding touches it for every task of every fitness evaluation).
// Callers must not modify the returned slice; use Impls for a copy.
func (l *Library) ImplsShared(taskType int) []relmodel.Impl {
	if taskType < 0 || taskType >= len(l.impls) {
		panic(fmt.Sprintf("characterize: task type %d out of range [0,%d)", taskType, len(l.impls)))
	}
	return l.impls[taskType]
}

// Validate checks every implementation against the platform.
func (l *Library) Validate(p *platform.Platform) error {
	if len(l.impls) == 0 {
		return fmt.Errorf("characterize: empty library")
	}
	for tt, impls := range l.impls {
		if len(impls) == 0 {
			return fmt.Errorf("characterize: task type %d has no implementations", tt)
		}
		for _, im := range impls {
			if err := im.Validate(); err != nil {
				return err
			}
			if im.PETypeIndex >= len(p.Types()) {
				return fmt.Errorf("characterize: impl %q references PE type %d of %d",
					im.Name, im.PETypeIndex, len(p.Types()))
			}
		}
	}
	return nil
}

// RTOSImplicitMasking is the implicit system-software masking attributed to
// an RTOS-based implementation (memory protection, supervised I/O); the
// bare-metal stack masks nothing.
const RTOSImplicitMasking = 0.08

// sobelCycles holds the per-task-type cycle counts at 900 MHz on the
// low-masking processor type, standing in for the paper's Gem5 runs.
// The second processor type is a different micro-architecture, modeled as
// procBCycleFactor× these counts.
var sobelCycles = [4]float64{
	3.2e5, // GScale ≈ 356 µs at 900 MHz
	4.6e5, // GSmth ≈ 511 µs
	3.7e5, // SobGrad ≈ 411 µs
	2.8e5, // CombThr ≈ 311 µs
}

var sobelPower = [4]float64{
	0.82, // GScale
	1.05, // GSmth (convolution-heavy)
	0.96, // SobGrad
	0.71, // CombThr
}

// sobelFootprintKB is the resident footprint per task type: code plus two
// QVGA grayscale line buffers / tiles.
var sobelFootprintKB = [4]float64{64, 96, 80, 48}

const (
	procBCycleFactor = 1.18
	procBPowerFactor = 0.92
	rtosCycleFactor  = 1.12
)

// Sobel returns the implementation library of the Sobel application
// (Fig. 2(b)) on the given platform: for each of the four task types, a
// bare-metal and an RTOS implementation on each general-purpose PE type.
// Reconfigurable regions host no Sobel implementations here, matching
// TABLE IV row I's two points (one per processor PE type).
func Sobel(p *platform.Platform) *Library {
	lib := &Library{impls: make([][]relmodel.Impl, 4)}
	gpIdx := generalPurposeTypeIndices(p)
	if len(gpIdx) < 2 {
		panic("characterize: Sobel library needs at least two general-purpose PE types")
	}
	names := []string{"GScale", "GSmth", "SobGrad", "CombThr"}
	for tt := 0; tt < 4; tt++ {
		for rank, pti := range gpIdx[:2] {
			cycles := sobelCycles[tt]
			power := sobelPower[tt]
			if rank == 1 {
				cycles *= procBCycleFactor
				power *= procBPowerFactor
			}
			lib.impls[tt] = append(lib.impls[tt],
				relmodel.Impl{
					Name:            fmt.Sprintf("%s/bare/pt%d", names[tt], pti),
					PETypeIndex:     pti,
					Cycles:          cycles,
					PowerW:          power,
					ImplicitMasking: 0,
					FootprintKB:     sobelFootprintKB[tt],
				},
				relmodel.Impl{
					Name:            fmt.Sprintf("%s/rtos/pt%d", names[tt], pti),
					PETypeIndex:     pti,
					Cycles:          cycles * rtosCycleFactor,
					PowerW:          power,
					ImplicitMasking: RTOSImplicitMasking,
					// The RTOS image adds resident kernel state.
					FootprintKB: sobelFootprintKB[tt] + 32,
				},
			)
		}
	}
	return lib
}

// SyntheticConfig controls synthetic characterization generation.
type SyntheticConfig struct {
	// NumTypes is the number of task types to characterize.
	NumTypes int
	// AcceleratorProb is the probability that a task type also has a
	// reconfigurable-fabric accelerator implementation.
	AcceleratorProb float64
	// RTOSVariants adds an RTOS implementation (with implicit masking)
	// alongside each bare-metal processor implementation.
	RTOSVariants bool
}

// DefaultSyntheticConfig mirrors the evaluation setup: ten task types with
// accelerator variants for roughly half of them.
func DefaultSyntheticConfig(numTypes int) SyntheticConfig {
	return SyntheticConfig{NumTypes: numTypes, AcceleratorProb: 0.5, RTOSVariants: true}
}

// Synthetic returns a seeded, deterministic implementation library for the
// given number of synthetic task types on the platform — the stand-in for
// characterizing TGFF-generated task sets. Cycle counts are drawn from
// [2e6, 9e6] (≈ 2.2–10 ms at 900 MHz — the paper's synthetic applications
// are substantially heavier than the Sobel kernels, which is what makes
// single-layer mitigation visibly insufficient in Fig. 7), power from
// [0.6, 1.4] W; accelerator implementations are ~4× faster but draw more
// power.
func Synthetic(p *platform.Platform, cfg SyntheticConfig, seed int64) *Library {
	if cfg.NumTypes <= 0 {
		panic("characterize: NumTypes must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	gpIdx := generalPurposeTypeIndices(p)
	rcIdx := reconfigurableTypeIndices(p)
	lib := &Library{impls: make([][]relmodel.Impl, cfg.NumTypes)}
	for tt := 0; tt < cfg.NumTypes; tt++ {
		baseCycles := 2e6 + rng.Float64()*7e6
		basePower := 0.6 + rng.Float64()*0.8
		baseFootprint := 30 + rng.Float64()*120
		for _, pti := range gpIdx {
			// Per-PE-type micro-architectural variation.
			c := baseCycles * (0.9 + rng.Float64()*0.4)
			w := basePower * (0.9 + rng.Float64()*0.25)
			lib.impls[tt] = append(lib.impls[tt], relmodel.Impl{
				Name:            fmt.Sprintf("SYN_%d/bare/pt%d", tt, pti),
				PETypeIndex:     pti,
				Cycles:          c,
				PowerW:          w,
				ImplicitMasking: 0,
				FootprintKB:     baseFootprint,
			})
			if cfg.RTOSVariants {
				lib.impls[tt] = append(lib.impls[tt], relmodel.Impl{
					Name:            fmt.Sprintf("SYN_%d/rtos/pt%d", tt, pti),
					PETypeIndex:     pti,
					Cycles:          c * rtosCycleFactor,
					PowerW:          w,
					ImplicitMasking: RTOSImplicitMasking,
					FootprintKB:     baseFootprint + 32,
				})
			}
		}
		if len(rcIdx) > 0 && rng.Float64() < cfg.AcceleratorProb {
			for _, pti := range rcIdx {
				lib.impls[tt] = append(lib.impls[tt], relmodel.Impl{
					Name:        fmt.Sprintf("SYN_%d/accel/pt%d", tt, pti),
					PETypeIndex: pti,
					// Accelerators clock lower but need far fewer cycles.
					Cycles:          baseCycles * 0.25 * (0.9 + rng.Float64()*0.2),
					PowerW:          basePower * (1.2 + rng.Float64()*0.3),
					ImplicitMasking: 0,
					// Accelerator bitstream state is accounted to the region.
					FootprintKB: baseFootprint * 0.6,
				})
				break // one accelerator implementation per type
			}
		}
	}
	return lib
}

func generalPurposeTypeIndices(p *platform.Platform) []int {
	var out []int
	for i, t := range p.Types() {
		if t.Class == platform.GeneralPurpose {
			out = append(out, i)
		}
	}
	return out
}

func reconfigurableTypeIndices(p *platform.Platform) []int {
	var out []int
	for i, t := range p.Types() {
		if t.Class == platform.Reconfigurable {
			out = append(out, i)
		}
	}
	return out
}

// jpegCycles and jpegPower characterize the JPEG encoder's five task types
// on the low-masking processor type at 900 MHz (Gem5/McPAT substitute, as
// for Sobel).
var jpegCycles = [5]float64{
	2.6e5, // RGB2YCC ≈ 289 µs
	5.4e5, // DCT ≈ 600 µs (transform-heavy)
	1.9e5, // Quant ≈ 211 µs
	2.2e5, // ZigZagRLE ≈ 244 µs
	4.1e5, // Huffman ≈ 456 µs (branchy, serial)
}

var jpegPower = [5]float64{0.78, 1.12, 0.66, 0.72, 0.91}

var jpegFootprintKB = [5]float64{56, 88, 40, 52, 72}

// JPEG returns the implementation library of the JPEG encoder pipeline:
// bare-metal and RTOS implementations on both processor types, plus a
// reconfigurable-fabric accelerator for the DCT (the classic candidate for
// hardware offload).
func JPEG(p *platform.Platform) *Library {
	lib := &Library{impls: make([][]relmodel.Impl, 5)}
	gpIdx := generalPurposeTypeIndices(p)
	if len(gpIdx) < 2 {
		panic("characterize: JPEG library needs at least two general-purpose PE types")
	}
	names := []string{"RGB2YCC", "DCT", "Quant", "ZigZagRLE", "Huffman"}
	for tt := 0; tt < 5; tt++ {
		for rank, pti := range gpIdx[:2] {
			cycles := jpegCycles[tt]
			power := jpegPower[tt]
			if rank == 1 {
				cycles *= procBCycleFactor
				power *= procBPowerFactor
			}
			lib.impls[tt] = append(lib.impls[tt],
				relmodel.Impl{
					Name:            fmt.Sprintf("%s/bare/pt%d", names[tt], pti),
					PETypeIndex:     pti,
					Cycles:          cycles,
					PowerW:          power,
					ImplicitMasking: 0,
					FootprintKB:     jpegFootprintKB[tt],
				},
				relmodel.Impl{
					Name:            fmt.Sprintf("%s/rtos/pt%d", names[tt], pti),
					PETypeIndex:     pti,
					Cycles:          cycles * rtosCycleFactor,
					PowerW:          power,
					ImplicitMasking: RTOSImplicitMasking,
					FootprintKB:     jpegFootprintKB[tt] + 32,
				},
			)
		}
	}
	// DCT accelerator on the reconfigurable regions.
	for _, pti := range reconfigurableTypeIndices(p) {
		lib.impls[1] = append(lib.impls[1], relmodel.Impl{
			Name:            fmt.Sprintf("DCT/accel/pt%d", pti),
			PETypeIndex:     pti,
			Cycles:          jpegCycles[1] * 0.22,
			PowerW:          jpegPower[1] * 1.35,
			ImplicitMasking: 0,
			FootprintKB:     jpegFootprintKB[1] * 0.6,
		})
		break
	}
	return lib
}
