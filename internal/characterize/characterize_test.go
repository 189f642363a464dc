package characterize

import (
	"reflect"
	"testing"

	"repro/internal/platform"
)

func TestSobelLibraryShape(t *testing.T) {
	p := platform.Default()
	lib := Sobel(p)
	if lib.NumTypes() != 4 {
		t.Fatalf("Sobel library has %d types, want 4", lib.NumTypes())
	}
	if err := lib.Validate(p); err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 4; tt++ {
		impls := lib.Impls(tt)
		// bare + RTOS on each of two processor types.
		if len(impls) != 4 {
			t.Fatalf("task type %d has %d impls, want 4", tt, len(impls))
		}
		types := map[int]int{}
		for _, im := range impls {
			types[im.PETypeIndex]++
			if p.Types()[im.PETypeIndex].Class != platform.GeneralPurpose {
				t.Fatalf("Sobel impl %q on non-processor PE type", im.Name)
			}
		}
		if len(types) != 2 {
			t.Fatalf("task type %d spans %d PE types, want 2", tt, len(types))
		}
	}
}

func TestSobelRTOSVariantsDiffer(t *testing.T) {
	lib := Sobel(platform.Default())
	impls := lib.Impls(0)
	var bare, rtos []int
	for i, im := range impls {
		if im.ImplicitMasking == 0 {
			bare = append(bare, i)
		} else {
			rtos = append(rtos, i)
		}
	}
	if len(bare) != 2 || len(rtos) != 2 {
		t.Fatalf("want 2 bare + 2 RTOS impls, got %d + %d", len(bare), len(rtos))
	}
	// RTOS costs cycles.
	if !(impls[rtos[0]].Cycles > impls[bare[0]].Cycles) {
		t.Fatal("RTOS implementation should cost cycles over bare-metal")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	p := platform.Default()
	cfg := DefaultSyntheticConfig(10)
	a := Synthetic(p, cfg, 42)
	b := Synthetic(p, cfg, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Synthetic not deterministic for equal seeds")
	}
	c := Synthetic(p, cfg, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical libraries")
	}
}

func TestSyntheticShape(t *testing.T) {
	p := platform.Default()
	lib := Synthetic(p, DefaultSyntheticConfig(10), 1)
	if lib.NumTypes() != 10 {
		t.Fatalf("NumTypes = %d, want 10", lib.NumTypes())
	}
	if err := lib.Validate(p); err != nil {
		t.Fatal(err)
	}
	accel := 0
	for tt := 0; tt < 10; tt++ {
		impls := lib.Impls(tt)
		// At least bare+rtos on two processor types.
		if len(impls) < 4 {
			t.Fatalf("type %d has %d impls, want ≥ 4", tt, len(impls))
		}
		for _, im := range impls {
			if p.Types()[im.PETypeIndex].Class == platform.Reconfigurable {
				accel++
				// Accelerators are faster than any processor impl.
				for _, other := range impls {
					if p.Types()[other.PETypeIndex].Class == platform.GeneralPurpose &&
						im.Cycles >= other.Cycles {
						t.Fatalf("accelerator impl %q not faster than %q", im.Name, other.Name)
					}
				}
			}
		}
	}
	if accel == 0 {
		t.Fatal("no accelerator implementations generated at 50% probability over 10 types")
	}
}

func TestSyntheticNoRTOS(t *testing.T) {
	p := platform.Default()
	cfg := SyntheticConfig{NumTypes: 3, AcceleratorProb: 0, RTOSVariants: false}
	lib := Synthetic(p, cfg, 5)
	for tt := 0; tt < 3; tt++ {
		for _, im := range lib.Impls(tt) {
			if im.ImplicitMasking != 0 {
				t.Fatal("RTOS variant present despite RTOSVariants=false")
			}
		}
		if len(lib.Impls(tt)) != 2 {
			t.Fatalf("want exactly 2 impls (two GP types), got %d", len(lib.Impls(tt)))
		}
	}
}

func TestImplsReturnsCopy(t *testing.T) {
	lib := Sobel(platform.Default())
	a := lib.Impls(0)
	a[0].Cycles = 1
	if lib.Impls(0)[0].Cycles == 1 {
		t.Fatal("Impls exposes internal storage")
	}
}

func TestImplsOutOfRangePanics(t *testing.T) {
	lib := Sobel(platform.Default())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lib.Impls(10)
}

func TestValidateEmptyLibrary(t *testing.T) {
	lib := &Library{}
	if err := lib.Validate(platform.Default()); err == nil {
		t.Fatal("expected error for empty library")
	}
}

func TestJPEGLibraryShape(t *testing.T) {
	p := platform.Default()
	lib := JPEG(p)
	if lib.NumTypes() != 5 {
		t.Fatalf("JPEG library has %d types, want 5", lib.NumTypes())
	}
	if err := lib.Validate(p); err != nil {
		t.Fatal(err)
	}
	// DCT (type 1) has an accelerator implementation; others do not.
	hasAccel := func(tt int) bool {
		for _, im := range lib.Impls(tt) {
			if p.Types()[im.PETypeIndex].Class == platform.Reconfigurable {
				return true
			}
		}
		return false
	}
	if !hasAccel(1) {
		t.Fatal("DCT should have an accelerator implementation")
	}
	for _, tt := range []int{0, 2, 3, 4} {
		if hasAccel(tt) {
			t.Fatalf("type %d unexpectedly has an accelerator", tt)
		}
	}
	// The accelerator is faster than any processor DCT.
	for _, im := range lib.Impls(1) {
		if p.Types()[im.PETypeIndex].Class != platform.Reconfigurable {
			continue
		}
		for _, other := range lib.Impls(1) {
			if p.Types()[other.PETypeIndex].Class == platform.GeneralPurpose && im.Cycles >= other.Cycles {
				t.Fatal("DCT accelerator not faster than processor implementations")
			}
		}
	}
}
