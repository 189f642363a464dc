//go:build race

package tdse_test

// raceEnabled thins the corpus part of the screen oracle under the race
// detector, which runs the chain analyses about ten times slower.
const raceEnabled = true
