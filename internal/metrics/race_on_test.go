//go:build race

package metrics

// The race detector instruments allocations, so allocation gates
// cannot hold under -race.
const raceEnabled = true
