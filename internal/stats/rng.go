package stats

import (
	"math"
	"math/rand"
)

// NewRNG returns a deterministic pseudo-random generator for the given
// seed. Every simulation in this repository takes an explicit RNG so
// experiments are reproducible run-to-run.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SampleLongTail draws a value from a log-normal-shaped long-tail
// distribution with the given median and tail heaviness sigma (>0), floored
// at lo. The paper observes that crowdsourced worker error follows a
// long-tail distribution (the motivation behind CATD); worker variance
// populations in the simulator are drawn with this helper.
func SampleLongTail(rng *rand.Rand, median, sigma, lo float64) float64 {
	v := median * math.Exp(sigma*rng.NormFloat64())
	if v < lo {
		return lo
	}
	return v
}

// SampleTruncatedNormal draws from N(mu, sd^2) truncated to [lo, hi] by
// rejection with a clamping fallback after a bounded number of attempts.
func SampleTruncatedNormal(rng *rand.Rand, mu, sd, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		x := mu + sd*rng.NormFloat64()
		if x >= lo && x <= hi {
			return x
		}
	}
	return Clamp(mu, lo, hi)
}
