//go:build race

package core

// raceEnabled reports a -race build: the per-boundary crash sweeps then
// visit every raceStride-th boundary (see raceStride).
const raceEnabled = true
