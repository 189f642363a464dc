package relmodel

// ExtendedCatalog returns a richer method set than DefaultCatalog — the
// additional named techniques a designer would want available in a real
// early-stage exploration. Parameters are representative values from the
// fault-tolerance literature, expressed in the same masking, detection,
// tolerance and checkpoint parameters as the default methods:
//
//	HW:  DMR-with-retry (duplication detects, re-execution corrects, so it
//	     appears as partial masking with a time penalty), full lockstep TMR.
//	SSW: finer checkpointing granularities, including over-checkpointing
//	     levels that demonstrate the adverse effect of ref. [16].
//	ASW: EDDI-style instruction duplication (detection-heavy, modeled as
//	     partial masking after recovery), ABFT for linear-algebra kernels.
//
// Richer catalogs enlarge FM_CL — the per-task configuration count of
// §V.B — which is exactly the scaling pressure the proposed two-stage
// methodology is designed to absorb.
func ExtendedCatalog() *Catalog {
	c := DefaultCatalog()
	c.HW = append(c.HW,
		HWMethod{Name: "DMR-retry", Masking: 0.85, TimeFactor: 1.30, PowerFactor: 2.05},
		HWMethod{Name: "lockstep-TMR", Masking: 0.98, TimeFactor: 1.22, PowerFactor: 3.10},
	)
	c.SSW = append(c.SSW,
		SSWMethod{
			Name:               "chkpt-1",
			DetectionCoverage:  0.92,
			DetectionTimeFrac:  0.08,
			ToleranceCoverage:  0.98,
			ToleranceTimeFrac:  0.06,
			Checkpoints:        1,
			CheckpointTimeFrac: 0.05,
		},
		SSWMethod{
			Name:               "chkpt-8",
			DetectionCoverage:  0.92,
			DetectionTimeFrac:  0.08,
			ToleranceCoverage:  0.98,
			ToleranceTimeFrac:  0.06,
			Checkpoints:        8,
			CheckpointTimeFrac: 0.05,
		},
		SSWMethod{
			// Heartbeat-style detection without recovery: cheap coverage
			// that relies on other layers (or the application) to tolerate.
			Name:              "heartbeat-det",
			DetectionCoverage: 0.70,
			DetectionTimeFrac: 0.02,
		},
	)
	c.ASW = append(c.ASW,
		ASWMethod{Name: "EDDI", Masking: 0.80, TimeFactor: 2.05},
		ASWMethod{Name: "ABFT", Masking: 0.65, TimeFactor: 1.15},
	)
	return c
}
