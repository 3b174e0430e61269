//go:build race

package mpi

// raceEnabled trims the golden matrix to its small payloads: the race
// detector slows the per-element payload loops by an order of magnitude,
// and the pinned clocks are as deterministic with it as without.
const raceEnabled = true
