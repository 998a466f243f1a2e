//go:build race

package serve

// raceEnabled reports a race-detector build, whose sync.Pool drops
// pooled objects at random and so adds allocations to the HTTP path.
const raceEnabled = true
