// Package clockrepro is the clocktaint fixture: raw wall-clock reads,
// and clock-laundering bugs — wall-clock reads washed through helper
// returns and struct fields before reaching a rand seed, a memo key,
// control flow, and checkpointed state. A call-site match sees only the
// time.Now itself; catching the flows requires following the value.
package clockrepro

import (
	"math/rand"
	"time"
)

// stampNS launders the clock through a helper return: callers never
// mention the time package.
func stampNS() int64 {
	return time.Now().UnixNano() //simlint:ok clocktaint fixture source: clocktaint must catch the flows, not the read
}

type Sampler struct {
	seed  int64
	rng   *rand.Rand
	cache map[int64]int
}

func New() *Sampler {
	s := &Sampler{cache: map[int64]int{}}
	// Two-step laundering: clock -> field -> seed.
	s.seed = stampNS()
	src := rand.NewSource(s.seed) // want `rand\.NewSource is seeded with a wall-clock-derived value`
	s.rng = rand.New(src)         // want `rand\.New is seeded with a wall-clock-derived value`
	return s
}

func (s *Sampler) Pick() int {
	if stampNS()%2 == 0 { // want `control flow depends on a wall-clock-derived value`
		return 0
	}
	return s.cache[s.seed] // want `map key derives from the wall clock`
}

// Warm is checkpointed state: freezing wall time into it makes every
// restore replay the save-time clock.
type Warm struct {
	Cycles int64
	Stamp  int64
}

func (w *Warm) SaveState() {}
func (w *Warm) LoadState() {}

func (w *Warm) Mark() {
	w.Stamp = stampNS() // want `stored into checkpointed field Stamp`
}

// stamp reads the wall clock.
func stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock`
}

// elapsed reads the wall clock through the Since shorthand.
func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since reads the wall clock`
}

// wallClock hands out the clock as a function value.
var wallClock = time.Now // want `time\.Now reads the wall clock`

// Deterministic uses stay silent: seeds from configuration, keys from
// inputs.
func Configured(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
