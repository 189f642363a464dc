package core

import (
	"fmt"

	"repro/internal/moea"
)

// Island-model execution of one GA stage. The stage's logical population
// splits across cfg.Islands cooperating islands (moea.RunIslands); each
// island checkpoints independently under a derived stage key, so a killed
// island resumes to the same front while its peers' snapshots stay
// untouched — the per-island extension of the PR 5 durable-run contract.

// IslandStage derives the checkpoint stage key of one island of a GA
// stage. Each island snapshots under its own key through the ordinary
// Checkpointer interface, so every store backend gains island durability
// without schema changes.
func IslandStage(stage string, island int) string {
	return fmt.Sprintf("%s/island%d", stage, island)
}

// runIslandStage executes one GA stage in island mode and returns the
// merged engine result. Progress flows through island 0 only — its
// generation count equals the stage budget, so stage progress semantics
// (TotalGenerations, generation indices) are identical to a
// single-population run.
func runIslandStage(p moea.Problem, cfg RunConfig, params moea.Params, seeds []*moea.Genome, stage string) (*moea.Result, error) {
	if cfg.Engine != NSGA2 {
		return nil, fmt.Errorf("core: island mode requires the NSGA-II engine, got %v", cfg.Engine)
	}
	migrants := cfg.Migrants
	if migrants <= 0 {
		migrants = 2
	}
	onGen := params.OnGeneration
	icfg := moea.IslandConfig{
		N:     cfg.Islands,
		Every: cfg.MigrationEvery,
		Count: migrants,
		PerIsland: func(i int, ip *moea.Params) {
			if i == 0 {
				ip.OnGeneration = onGen
			}
			// Heterogeneous exploration ladder: island 0 keeps the base
			// operator rates (pure exploitation); each later island mutates
			// progressively harder, up to 3× the base rate, capped at 0.5.
			// Migration feeds the explorers' discoveries back into the
			// exploiting islands — the mechanism that lets the merged front
			// beat an equal-budget single population.
			if i > 0 && cfg.Islands > 1 {
				ip.MutationProb *= 1 + 2*float64(i)/float64(cfg.Islands-1)
				if ip.MutationProb > 0.5 {
					ip.MutationProb = 0.5
				}
			}
			cfg.checkpointStage(ip, IslandStage(stage, i))
		},
	}
	return moea.RunIslands(p, params, seeds, icfg)
}
