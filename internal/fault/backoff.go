package fault

import "math"

// Backoff is a capped exponential retry-delay schedule with
// deterministic multiplicative jitter. For a fixed configuration the
// sequence Delay(0), Delay(1), ... is
//
//   - deterministic (a pure function of the configuration and seed),
//   - monotone non-decreasing, and
//   - bounded by Cap,
//
// three properties the retry tests assert. Determinism matters because
// the whole runtime is virtual-time: a retry storm must replay
// identically from a seed.
type Backoff struct {
	// Base is the first retry delay in seconds (default 0.25).
	Base float64
	// Factor is the per-attempt growth, >= 1 (default 2).
	Factor float64
	// Cap bounds every delay (default 8).
	Cap float64
	// Jitter is the multiplicative jitter amplitude: attempt k waits
	// Base*Factor^k*(1+Jitter*u_k) with u_k in [0, 1) derived from the
	// seed. It is clamped to [0, Factor-1] so jitter can never break
	// monotonicity.
	Jitter float64
	// Seed drives the jitter stream.
	Seed int64
}

// normalized returns the schedule with defaults filled in and the
// jitter clamped into the monotonicity-preserving range.
func (b Backoff) normalized() Backoff {
	if math.IsNaN(b.Base) || b.Base <= 0 {
		b.Base = 0.25
	}
	if math.IsNaN(b.Factor) || b.Factor < 1 {
		b.Factor = 2
	}
	if math.IsNaN(b.Cap) || b.Cap <= 0 {
		b.Cap = 8
	}
	if math.IsNaN(b.Jitter) || b.Jitter < 0 {
		b.Jitter = 0
	}
	if b.Jitter > b.Factor-1 {
		b.Jitter = b.Factor - 1
	}
	return b
}

// Delay returns the wait, in seconds, before retry attempt k
// (0-based).
func (b Backoff) Delay(attempt int) float64 {
	nb := b.normalized()
	if attempt < 0 {
		attempt = 0
	}
	raw := nb.Base * math.Pow(nb.Factor, float64(attempt))
	if nb.Jitter > 0 {
		raw *= 1 + nb.Jitter*unitRand(nb.Seed, attempt)
	}
	if math.IsNaN(raw) || raw > nb.Cap {
		return nb.Cap
	}
	return raw
}

// Stream returns a copy of the schedule whose jitter is decorrelated
// by the given stream id: retries to different destinations draw from
// different (still seeded, still deterministic) jitter streams, so
// flapping-link retries across destinations do not synchronize into
// retry storms that all probe the link during the same down phase. A
// schedule without jitter is returned unchanged — every stream of a
// jitter-free schedule is the same deterministic capped backoff.
func (b Backoff) Stream(id int64) Backoff {
	nb := b.normalized()
	if nb.Jitter == 0 {
		return b
	}
	// Mix the id into the seed through the same splitmix64 finalizer
	// the jitter stream uses, so nearby ids give unrelated streams.
	x := uint64(b.Seed) ^ (0x9e3779b97f4a7c15 * uint64(id+1))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	b.Seed = int64(x)
	return b
}

// unitRand maps (seed, k) to a uniform value in [0, 1) with a
// splitmix64 finalizer — stateless, so Delay stays a pure function.
func unitRand(seed int64, k int) float64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(k+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Policy configures failure detection and recovery for the
// fault-tolerant collectives in internal/mpi.
type Policy struct {
	// Timeout is how long the root waits for a send to be acknowledged
	// before declaring it lost (default 1 second when a plan is set).
	Timeout float64
	// MaxRetries is the number of retries per destination per scatter
	// round after the first attempt; when exhausted the destination is
	// declared permanently failed and its share is rebalanced over the
	// survivors. Negative values mean no retries.
	MaxRetries int
	// Backoff schedules the waits between retries.
	Backoff Backoff
	// Election is the failure-detection plus re-election overhead, in
	// virtual seconds, charged when a serving root crashes and the
	// survivors promote a replacement from the replicated ledger
	// (default: 2×Timeout — the survivors must first miss a heartbeat,
	// then run the agreement round).
	Election float64
}

// WithDefaults fills unset fields with their defaults.
func (p Policy) WithDefaults() Policy {
	if math.IsNaN(p.Timeout) || p.Timeout <= 0 {
		p.Timeout = 1
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if math.IsNaN(p.Election) || p.Election <= 0 {
		p.Election = 2 * p.Timeout
	}
	return p
}
