//go:build !race

package relmodel_test

const raceEnabled = false
