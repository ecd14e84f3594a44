//go:build race

package service

// raceEnabled reports whether the test binary runs under the race
// detector, whose slowdown makes wall-clock throughput floors measure
// the detector rather than the daemon.
const raceEnabled = true
