package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64).
// Every simulated run owns one RNG seeded from the run's identity, so all
// noise is bit-reproducible.
type RNG struct {
	state uint64
	// cached spare normal deviate (Box-Muller produces two at a time)
	spare    float64
	hasSpare bool
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Seed-domain salts. Every subsystem that measures in the simulator derives
// its seeds under its own salt, so no two consumers can ever walk the same
// noise stream even when their content keys (config id, instance) collide:
// dataset generation keys by the dataset-name hash, audit replay by
// DomainAuditReplay, and the online-retraining observer by DomainRetrain.
// New consumers must claim a new salt here rather than reusing one.
const (
	// DomainAuditReplay keys mpicollaudit's observed-vs-predicted replay.
	DomainAuditReplay uint64 = 0xAD170
	// DomainRetrain keys the retraining loop's replay measurements; distinct
	// from DomainAuditReplay so an offline replay report and a live retrain
	// pass over the same log draw independent noise.
	DomainRetrain uint64 = 0x8E74A1
)

// DomainSeed derives a seed from a domain salt and content parts. The salt
// is mixed both first and last, so a caller whose leading content part
// happens to equal another domain's salt still lands in its own stream.
func DomainSeed(domain uint64, parts ...uint64) uint64 {
	all := make([]uint64, 0, len(parts)+2)
	all = append(all, domain)
	all = append(all, parts...)
	all = append(all, domain)
	return Seed(all...)
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform deviate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal deviate (Box-Muller).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// LogNormal returns a multiplicative noise factor with median 1 and
// standard deviation ~sigma, approximating exp(sigma*N(0,1)) for the small
// sigmas used as network noise. It is called once per simulated message, so
// it uses a cheap Irwin-Hall(3) normal approximation instead of Box-Muller
// and a first-order exponential (floored to stay positive).
func (r *RNG) LogNormal(sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	z := (r.Float64() + r.Float64() + r.Float64() - 1.5) * 2 // ~N(0,1)
	f := 1 + sigma*z
	if f < 0.3 {
		f = 0.3
	}
	return f
}

// Seed derives a well-mixed 64-bit seed from a list of integer components
// (e.g. a run key: dataset id, algorithm id, node count, ppn, message size,
// repetition). It is the canonical way to key deterministic noise.
func Seed(parts ...uint64) uint64 {
	h := uint64(0x51_7C_C1_B7_27_22_0A_95)
	for _, p := range parts {
		h ^= p
		h *= 0x100000001B3
		h ^= h >> 29
		h *= 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return h
}
