//go:build race

package pop

// raceEnabled reports a -race build, under which sync.Pool drops items on
// purpose, so allocation counts through the pools are not meaningful.
const raceEnabled = true
