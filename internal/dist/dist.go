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

// NewPCG returns the source NewRand wraps for seed. A hot path that keeps
// both draws from the source directly with Uint64N and Float64, which skip
// the Rand's interface call, and leaves the Rand for Shuffle and the like:
// the two share one stream.
func NewPCG(seed uint64) *rand.PCG {
	return rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
}

// Uint64N returns rand.New(src).Uint64N(n) bit for bit, advancing src
// exactly as that call would: Lemire's multiply-shift with the stdlib's
// rejection threshold. The stdlib's 32-bit branch yields the same sequence
// by design, so this matches it on every platform. It panics if n == 0.
func Uint64N(src *rand.PCG, n uint64) uint64 {
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
func Float64(src *rand.PCG) float64 {
	return float64(src.Uint64()<<11>>11) / (1 << 53)
}

// Sampler produces random durations from a fixed distribution.
type Sampler interface {
	// Sample draws one value using the provided source.
	Sample(r *rand.Rand) vclock.Duration
	// Quantile returns the q-th quantile of the distribution, 0 < q < 1.
	Quantile(q float64) vclock.Duration
	// Mean returns the distribution's expected value.
	Mean() vclock.Duration
}

// Constant is a degenerate distribution that always returns the same value.
type Constant vclock.Duration

// Sample implements Sampler.
func (c Constant) Sample(*rand.Rand) vclock.Duration { return vclock.Duration(c) }

// Quantile implements Sampler.
func (c Constant) Quantile(float64) vclock.Duration { return vclock.Duration(c) }

// Mean implements Sampler.
func (c Constant) Mean() vclock.Duration { return vclock.Duration(c) }

// Uniform is a continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi vclock.Duration
}

// Sample implements Sampler.
func (u Uniform) Sample(r *rand.Rand) vclock.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + vclock.Duration(r.Int64N(int64(u.Hi-u.Lo)+1))
}

// Quantile implements Sampler.
func (u Uniform) Quantile(q float64) vclock.Duration {
	return u.Lo + vclock.Duration(q*float64(u.Hi-u.Lo))
}

// Mean implements Sampler.
func (u Uniform) Mean() vclock.Duration { return (u.Lo + u.Hi) / 2 }

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

// Sample implements Sampler.
func (l LogNormal) Sample(r *rand.Rand) vclock.Duration {
	x := math.Exp(l.Mu + l.Sigma*r.NormFloat64())
	if x < 1 {
		x = 1 // clamp to the clock's resolution
	}
	return vclock.Duration(x)
}

// Quantile implements Sampler.
func (l LogNormal) Quantile(q float64) vclock.Duration {
	x := math.Exp(l.Mu + l.Sigma*normQuantile(q))
	if x < 1 {
		x = 1
	}
	return vclock.Duration(x)
}

// Mean implements Sampler.
func (l LogNormal) Mean() vclock.Duration {
	return vclock.Duration(math.Exp(l.Mu + l.Sigma*l.Sigma/2))
}

// Exponential models memoryless inter-arrival gaps with the given mean.
type Exponential struct {
	MeanDur vclock.Duration
}

// Sample implements Sampler.
func (e Exponential) Sample(r *rand.Rand) vclock.Duration {
	x := r.ExpFloat64() * float64(e.MeanDur)
	if x < 1 {
		x = 1
	}
	return vclock.Duration(x)
}

// Quantile implements Sampler.
func (e Exponential) Quantile(q float64) vclock.Duration {
	return vclock.Duration(-math.Log(1-q) * float64(e.MeanDur))
}

// Mean implements Sampler.
func (e Exponential) Mean() vclock.Duration { return e.MeanDur }

// Scaled wraps a Sampler, multiplying every draw by Factor. Device models
// use it to express transient slowdowns (for example queueing delay as a
// device approaches its IOPS ceiling) without re-fitting the base
// distribution.
type Scaled struct {
	Base   Sampler
	Factor float64
}

// Sample implements Sampler.
func (s Scaled) Sample(r *rand.Rand) vclock.Duration {
	return vclock.Duration(float64(s.Base.Sample(r)) * s.Factor)
}

// Quantile implements Sampler.
func (s Scaled) Quantile(q float64) vclock.Duration {
	return vclock.Duration(float64(s.Base.Quantile(q)) * s.Factor)
}

// Mean implements Sampler.
func (s Scaled) Mean() vclock.Duration {
	return vclock.Duration(float64(s.Base.Mean()) * s.Factor)
}

// normQuantile returns the q-th quantile of the standard normal distribution
// using the Acklam rational approximation, accurate to about 1e-9 over
// (0, 1). That is far tighter than anything the simulation can observe.
func normQuantile(q float64) float64 {
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("dist: quantile out of range: %v", q))
	}
	// Coefficients for the central and tail regions.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case q < plow:
		u := math.Sqrt(-2 * math.Log(q))
		return (((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	case q > 1-plow:
		u := math.Sqrt(-2 * math.Log(1-q))
		return -(((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	default:
		u := q - 0.5
		v := u * u
		return (((((a[0]*v+a[1])*v+a[2])*v+a[3])*v+a[4])*v + a[5]) * u /
			(((((b[0]*v+b[1])*v+b[2])*v+b[3])*v+b[4])*v + 1)
	}
}
