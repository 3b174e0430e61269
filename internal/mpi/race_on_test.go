//go:build race

package mpi

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so what a call allocates is not a property of the code.
const raceEnabled = true
