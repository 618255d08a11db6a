//go:build !race

package pop

const raceEnabled = false
