//go:build race

package pipeline_test

// raceEnabled reports that this test binary was built with -race; the
// stepping reference skips itself there (it replays single-goroutine
// runs, which gain nothing from the detector and cost ~10x).
const raceEnabled = true
