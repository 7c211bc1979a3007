// Package quickseed gives every randomized property test in the
// module one logged, replayable seed. Tests pass Config(t, n) to
// quick.Check instead of a bare quick.Config: the seed comes from
// HARMONY_QUICK_SEED when set, else from the clock, and is logged
// either way, so a failure seen once can be replayed exactly:
//
//	HARMONY_QUICK_SEED=<seed> go test -run <Test> ./<pkg>/
package quickseed

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

// Env names the environment variable that fixes the seed.
const Env = "HARMONY_QUICK_SEED"

// Rand returns a random source seeded from Env when set, else from
// the clock, and logs the seed on t.
func Rand(t testing.TB) *rand.Rand {
	t.Helper()
	seed := time.Now().UnixNano()
	if v := os.Getenv(Env); v != "" {
		var err error
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			t.Fatalf("%s=%q: %v", Env, v, err)
		}
	}
	t.Logf("quick.Check seed %d (replay with %s=%d)", seed, Env, seed)
	return rand.New(rand.NewSource(seed))
}

// Config returns a quick.Config that runs maxCount cases drawn from
// Rand(t).
func Config(t testing.TB, maxCount int) *quick.Config {
	t.Helper()
	return &quick.Config{MaxCount: maxCount, Rand: Rand(t)}
}
