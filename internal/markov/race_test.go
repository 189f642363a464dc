//go:build race

package markov_test

// raceEnabled thins the corpus oracle under the race detector, which runs
// the chain analyses about ten times slower.
const raceEnabled = true
