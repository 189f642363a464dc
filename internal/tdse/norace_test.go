//go:build !race

package tdse_test

const raceEnabled = false
