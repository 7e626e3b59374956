//go:build race

package interp

// raceEnabled relaxes the allocation pins under the race detector,
// whose sync.Pool drops a quarter of its Puts at random.
const raceEnabled = true
