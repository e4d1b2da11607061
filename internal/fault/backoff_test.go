package fault

import (
	"math"
	"testing"
)

// checkBackoff asserts the three contract properties of a schedule
// over attempts 0..n: monotone non-decreasing, capped, deterministic.
func checkBackoff(t *testing.T, b Backoff, n int) {
	t.Helper()
	nb := b.normalized()
	prev := 0.0
	for k := 0; k <= n; k++ {
		d := b.Delay(k)
		if math.IsNaN(d) || d < 0 {
			t.Fatalf("Delay(%d) = %g", k, d)
		}
		if d < prev {
			t.Fatalf("Delay(%d) = %g < Delay(%d) = %g: not monotone", k, d, k-1, prev)
		}
		if d > nb.Cap {
			t.Fatalf("Delay(%d) = %g exceeds cap %g", k, d, nb.Cap)
		}
		if again := b.Delay(k); again != d {
			t.Fatalf("Delay(%d) not deterministic: %g then %g", k, d, again)
		}
		prev = d
	}
}

func TestBackoffTable(t *testing.T) {
	b := Backoff{Base: 0.5, Factor: 2, Cap: 3}
	want := []float64{0.5, 1, 2, 3, 3, 3}
	for k, w := range want {
		if got := b.Delay(k); math.Abs(got-w) > 1e-12 {
			t.Errorf("Delay(%d) = %g, want %g", k, got, w)
		}
	}
	if got := b.Delay(-3); got != 0.5 {
		t.Errorf("Delay(-3) = %g, want Delay(0) = 0.5", got)
	}
}

func TestBackoffProperties(t *testing.T) {
	schedules := []Backoff{
		{},                             // all defaults
		{Base: 0.5, Factor: 2, Cap: 3}, // plain exponential
		{Base: 0.1, Factor: 3, Cap: 50, Jitter: 0.5, Seed: 7},
		{Base: 1, Factor: 1, Cap: 10, Jitter: 0.9},           // factor 1: jitter clamps to 0
		{Base: 2, Factor: 1.5, Cap: 1},                       // cap below base
		{Base: 0.25, Factor: 2, Cap: 8, Jitter: 5, Seed: -9}, // jitter clamps to factor-1
		{Base: math.NaN(), Factor: math.NaN(), Cap: math.NaN(), Jitter: math.NaN()},
	}
	for i, b := range schedules {
		checkBackoff(t, b, 64)
		// Huge attempt numbers must not overflow past the cap; growing
		// schedules saturate exactly at it.
		nb := b.normalized()
		d := b.Delay(1 << 30)
		if d > nb.Cap {
			t.Errorf("schedule %d: Delay(2^30) = %g exceeds cap %g", i, d, nb.Cap)
		}
		if nb.Factor > 1 && d != nb.Cap {
			t.Errorf("schedule %d: Delay(2^30) = %g, want cap %g", i, d, nb.Cap)
		}
	}
}

func TestBackoffSeedChangesJitter(t *testing.T) {
	a := Backoff{Base: 1, Factor: 2, Cap: 1e9, Jitter: 0.5, Seed: 1}
	b := Backoff{Base: 1, Factor: 2, Cap: 1e9, Jitter: 0.5, Seed: 2}
	differs := false
	for k := 0; k < 16; k++ {
		if a.Delay(k) != b.Delay(k) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("different seeds produced identical jittered schedules")
	}
}

func TestBackoffStreams(t *testing.T) {
	b := Backoff{Base: 0.5, Factor: 2, Cap: 1e9, Jitter: 0.9, Seed: 42}
	// Every stream obeys the schedule contract.
	for id := int64(0); id < 8; id++ {
		checkBackoff(t, b.Stream(id), 48)
	}
	// Streams are deterministic per id...
	for k := 0; k < 8; k++ {
		if b.Stream(3).Delay(k) != b.Stream(3).Delay(k) {
			t.Fatalf("stream replay diverged at attempt %d", k)
		}
	}
	// ...and decorrelated across ids: two destinations retrying in
	// lockstep must not wait identical jittered delays every attempt.
	differs := false
	for k := 0; k < 16; k++ {
		if b.Stream(0).Delay(k) != b.Stream(1).Delay(k) {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("streams 0 and 1 produced identical jittered schedules")
	}
}

func TestBackoffStreamWithoutJitterIsIdentity(t *testing.T) {
	b := Backoff{Base: 0.25, Factor: 2, Cap: 8}
	for id := int64(0); id < 4; id++ {
		for k := 0; k < 12; k++ {
			if got, want := b.Stream(id).Delay(k), b.Delay(k); got != want {
				t.Fatalf("jitter-free stream %d Delay(%d) = %g, want %g", id, k, got, want)
			}
		}
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.WithDefaults()
	if p.Timeout != 1 {
		t.Errorf("default timeout = %g, want 1", p.Timeout)
	}
	if p.MaxRetries != 0 {
		t.Errorf("zero-value retries = %d, want 0", p.MaxRetries)
	}
	p = Policy{Timeout: -5, MaxRetries: -2}.WithDefaults()
	if p.Timeout != 1 || p.MaxRetries != 0 {
		t.Errorf("negative fields not normalized: %+v", p)
	}
}
