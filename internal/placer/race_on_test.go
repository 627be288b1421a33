//go:build race

package placer

// raceEnabled reports a -race build, whose instrumentation and sync.Pool
// drops change what a test allocates.
const raceEnabled = true
