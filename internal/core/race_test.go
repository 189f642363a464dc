//go:build race

package core

// raceEnabled thins the metric-table oracle under the race detector, which
// runs the chain analyses about ten times slower.
const raceEnabled = true
