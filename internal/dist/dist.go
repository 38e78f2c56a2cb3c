// Package dist provides deterministic random-latency distributions for the
// simulator's device and service-time models.
//
// The paper's evaluation hinges on latency *distributions*, not means: SSD
// p99 read latency spans 470us-9.3ms across the fleet's device generations
// (Fig. 5), and the gap between a fast and a slow SSD's tail is what drives
// the different Senpai equilibria in Fig. 12. Device models are therefore
// parameterised by median and p99, fitted to a log-normal, which is the
// conventional shape for flash read latencies.
//
// All sampling uses math/rand/v2 PCG sources seeded explicitly; an experiment
// with the same seed reproduces bit-identical results.
package dist

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"tmo/internal/vclock"
)

// NewRand returns a deterministic PCG-backed random source for the given
// seed. Every simulated component that needs randomness derives its own
// source so that adding a component never perturbs another's stream.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(NewPCG(seed))
}

// PCG is math/rand/v2's PCG-DXSM generator bit for bit: the same 128-bit
// LCG step and output mix, so it yields what rand.NewPCG would from the
// same seeds. It is a plain pair of words and its Uint64 inlines, so a hot
// loop can copy it into a local, draw from the copy and store it back once.
type PCG struct{ hi, lo uint64 }

// NewPCG returns the source NewRand wraps for seed. A hot path that keeps
// both draws from the source directly with Uint64N and Float64, which skip
// the Rand's interface call, and leaves the Rand for Shuffle and the like:
// the two share one stream.
func NewPCG(seed uint64) *PCG {
	return &PCG{seed, seed ^ 0x9e3779b97f4a7c15}
}

// Uint64 advances the state (state = state*mul + inc, mod 2^128) and
// returns its DXSM mix of the new state.
func (p *PCG) Uint64() uint64 {
	const (
		mulHi    = 2549297995355413924
		mulLo    = 4865540595714422341
		incHi    = 6364136223846793005
		incLo    = 1442695040888963407
		cheapMul = 0xda942042e4dd58b5
	)
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	p.lo, p.hi = lo, hi
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	return hi * (lo | 1)
}

// Uint64N returns rand.New(src).Uint64N(n) bit for bit, advancing src
// exactly as that call would: Lemire's multiply-shift with the stdlib's
// rejection threshold. The stdlib's 32-bit branch yields the same sequence
// by design, so this matches it on every platform. It panics if n == 0.
func Uint64N(src *PCG, n uint64) uint64 {
	if n == 0 {
		panic("dist: Uint64N(0)")
	}
	if n&(n-1) == 0 {
		return src.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(src.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns rand.New(src).Float64() bit for bit: one draw scaled into
// [0, 1) with 53 bits of precision.
func Float64(src *PCG) float64 {
	return float64(src.Uint64()<<11>>11) / (1 << 53)
}

// LogNormal is a log-normal distribution parameterised by the underlying
// normal's mu and sigma. Construct one with FitLogNormal, which takes the
// operationally meaningful median and p99 instead.
type LogNormal struct {
	Mu    float64 // mean of ln(X), with X in microseconds
	Sigma float64 // stddev of ln(X)
}

// z99 is the 99th percentile of the standard normal distribution.
const z99 = 2.3263478740408408

// FitLogNormal returns the log-normal distribution whose median and 99th
// percentile match the given durations. It panics if the parameters are not
// strictly positive or p99 < median, which always indicates a device-model
// configuration bug.
func FitLogNormal(median, p99 vclock.Duration) LogNormal {
	if median <= 0 || p99 < median {
		panic(fmt.Sprintf("dist: invalid log-normal fit median=%v p99=%v", median, p99))
	}
	mu := math.Log(float64(median))
	sigma := math.Log(float64(p99)/float64(median)) / z99
	return LogNormal{Mu: mu, Sigma: sigma}
}

// Sample draws one duration from the distribution using r.
func (l LogNormal) Sample(r *rand.Rand) vclock.Duration {
	x := math.Exp(l.Mu + l.Sigma*r.NormFloat64())
	if x < 1 {
		x = 1 // clamp to the clock's resolution
	}
	return vclock.Duration(x)
}
