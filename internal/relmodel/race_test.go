//go:build race

package relmodel_test

// raceEnabled thins the corpus oracle under the race detector, which runs
// the chain analyses about ten times slower.
const raceEnabled = true
