// Package debugcache is the globalrand fixture: a seeded reproduction
// of the historical DebugSharing bug plus the ambient-nondeterminism
// patterns the analyzer rejects. DebugSharing was a package-level map
// in internal/sim/cache; every System mutated it, which was a data race
// the moment the parallel Runner ran two simulations at once — found by
// -race long after the code landed, moved into the System struct in
// PR 5. (Wall-clock reads belong to clocktaint; see clockrepro.)
package debugcache

import "math/rand"

// The DebugSharing pattern: package-global mutable state shared by
// every concurrent simulation.
var debugSharing = map[uint64][]int{} // want `package-level var debugSharing is shared by every concurrent simulation`

// A genuinely immutable package-level value carries the audited
// exemption.
var magic = [4]byte{'S', 'I', 'M', '1'} //simlint:ok globalrand write-once format constant, never mutated

// Track is the racy global-state access the analyzer exists to stop.
func Track(line uint64, core int) {
	debugSharing[line] = append(debugSharing[line], core)
}

// pickVictim draws from the process-global generator: unseeded by
// default and shared across goroutines, so the parallel Runner
// interleaves draws nondeterministically.
func pickVictim(n int) int {
	return rand.Intn(n) // want `uses the process-global generator`
}

// seededVictim is the approved pattern: a constructor builds a seeded
// per-run generator and draws are methods on it.
func seededVictim(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}
