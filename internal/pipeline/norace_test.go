//go:build !race

package pipeline_test

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
