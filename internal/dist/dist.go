// Package dist provides the random-variate distributions used by the
// Speedlight simulations: link latencies, clock jitter and control-plane
// scheduling delays.
//
// All distributions draw from an explicit *rand.Rand so that every
// simulation run is reproducible from a seed.
package dist

import (
	"math"
	"math/rand"
)

// Dist is a distribution over float64 values.
type Dist interface {
	// Sample draws one variate using r as the randomness source.
	Sample(r *rand.Rand) float64
	// Mean returns the distribution's expected value.
	Mean() float64
}

// Constant is a degenerate distribution that always returns V.
type Constant struct{ V float64 }

// Sample implements Dist.
func (c Constant) Sample(*rand.Rand) float64 { return c.V }

// Mean implements Dist.
func (c Constant) Mean() float64 { return c.V }

// Normal is the Gaussian distribution with the given mean and standard
// deviation. Samples may be negative, as the clock offsets and drift
// rates it models are.
type Normal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (n Normal) Sample(r *rand.Rand) float64 {
	return n.Mu + n.Sigma*r.NormFloat64()
}

// Mean implements Dist.
func (n Normal) Mean() float64 { return n.Mu }

// LogNormal is the log-normal distribution: exp(N(Mu, Sigma)). It is the
// canonical heavy-ish-tailed model for OS scheduling and control-plane
// processing delays.
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean implements Dist.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// LogNormalFromMedianP99 constructs a LogNormal whose median is roughly
// median and whose 99th percentile is roughly p99. This matches how the
// paper characterizes delays by typical and tail values.
func LogNormalFromMedianP99(median, p99 float64) LogNormal {
	if median <= 0 || p99 <= median {
		return LogNormal{Mu: math.Log(math.Max(median, 1e-12)), Sigma: 0}
	}
	// For lognormal, quantile q = exp(mu + sigma*z_q); z_0.99 ~= 2.3263.
	const z99 = 2.3263478740408408
	mu := math.Log(median)
	sigma := (math.Log(p99) - mu) / z99
	return LogNormal{Mu: mu, Sigma: sigma}
}
