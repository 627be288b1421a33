//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation and sync.Pool
// drops change what a test allocates.
const raceEnabled = true
