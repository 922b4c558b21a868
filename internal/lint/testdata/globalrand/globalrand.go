// Fixture for detsource's call-site checks, once the globalrand rule:
// global math/rand state and time-seeded sources, flagged wherever they
// appear.
package fixture

import (
	"math/rand"
	"time"
)

func usesGlobal() int {
	return rand.Intn(10) // want `global rand.Intn`
}

func shufflesGlobal(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global rand.Shuffle`
}

var sink = rand.Float64 // want `global rand.Float64`

func timeSeeded() rand.Source {
	return rand.NewSource(time.Now().UnixNano()) // want `seeded from time.Now`
}

// The approved pattern: an explicit generator built from a config seed and
// threaded as *rand.Rand.
func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func draws(rng *rand.Rand) float64 {
	return rng.Float64()
}
