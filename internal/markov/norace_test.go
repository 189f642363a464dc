//go:build !race

package markov_test

const raceEnabled = false
