package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cost"
)

// linearPlatform builds a fingerprintable platform of p processors
// whose costs are seeded off (seed, i), with the root (served last)
// carrying a per-seed computation rate so two platforms with different
// seeds never share a cost-fingerprint suffix.
func linearPlatform(seed, p int) []Processor {
	procs := make([]Processor, p)
	for i := 0; i < p-1; i++ {
		procs[i] = Processor{
			Name: fmt.Sprintf("s%d-p%d", seed, i),
			Comm: cost.Linear{PerItem: 1e-5 * float64(1+(seed*31+i)%7)},
			Comp: cost.Linear{PerItem: 1e-4 * float64(1+(seed*17+i)%5)},
		}
	}
	procs[p-1] = Processor{
		Name: fmt.Sprintf("s%d-root", seed),
		Comm: cost.Zero,
		Comp: cost.Linear{PerItem: 1e-4 * float64(1+seed)},
	}
	return procs
}

// TestEngineConcurrentDistinctSignatures hammers one engine with
// several distinct platform signatures from several goroutines at
// once, asserting (a) every concurrent answer is bit-identical to a
// sequential fresh Algorithm 2 solve, and (b) each distinct signature
// paid exactly one cold solve — everything else was a cache hit or a
// coalesced singleflight wait.
func TestEngineConcurrentDistinctSignatures(t *testing.T) {
	const (
		sigs = 8
		gor  = 4
		n    = 3000
	)
	platforms := make([][]Processor, sigs)
	fresh := make([]Result, sigs)
	for s := range platforms {
		platforms[s] = linearPlatform(s, 5+s%3)
		want, err := Algorithm2(platforms[s], n)
		if err != nil {
			t.Fatalf("fresh solve %d: %v", s, err)
		}
		fresh[s] = want
	}

	e := NewEngine(2 * sigs)
	var wg sync.WaitGroup
	errs := make(chan error, sigs*gor)
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 0; s < sigs; s++ {
				// Stagger the order per goroutine so leaders and
				// waiters mix across signatures.
				s := (s + g) % sigs
				res, info, err := e.SolveDetailed(platforms[s], n)
				if err != nil {
					errs <- fmt.Errorf("solve %d: %v", s, err)
					return
				}
				if info.Signature == "" {
					errs <- fmt.Errorf("solve %d: missing signature", s)
					return
				}
				if !equalDist(res.Distribution, fresh[s].Distribution) || res.Makespan != fresh[s].Makespan {
					errs <- fmt.Errorf("solve %d: concurrent result %v (%v) != fresh %v (%v)",
						s, res.Distribution, res.Makespan, fresh[s].Distribution, fresh[s].Makespan)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.ColdSolves != sigs {
		t.Fatalf("ColdSolves = %d, want exactly %d (one per distinct signature)", st.ColdSolves, sigs)
	}
	if st.Resolves != 0 {
		t.Fatalf("Resolves = %d, want 0 (platforms share no suffix)", st.Resolves)
	}
	if got, want := st.CacheHits+st.Coalesced+st.ColdSolves, sigs*gor; got != want {
		t.Fatalf("CacheHits+Coalesced+ColdSolves = %d, want %d (every request accounted for)", got, want)
	}
}

// TestEngineConcurrentIdenticalFingerprint points every goroutine at
// one (signature, item count) pair: exactly one cold solve may happen,
// and all answers must be bit-identical to the sequential fresh solve.
func TestEngineConcurrentIdenticalFingerprint(t *testing.T) {
	const (
		gor = 16
		n   = 3000
	)
	procs := linearPlatform(1, 6)
	want, err := Algorithm2(procs, n)
	if err != nil {
		t.Fatalf("fresh solve: %v", err)
	}

	e := NewEngine(0)
	var wg sync.WaitGroup
	errs := make(chan error, gor)
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := e.SolveDetailed(procs, n)
			if err != nil {
				errs <- err
				return
			}
			if !equalDist(res.Distribution, want.Distribution) || res.Makespan != want.Makespan {
				errs <- fmt.Errorf("concurrent result %v != fresh %v", res.Distribution, want.Distribution)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.ColdSolves != 1 {
		t.Fatalf("ColdSolves = %d, want exactly 1", st.ColdSolves)
	}
	if got := st.CacheHits + st.Coalesced; got != gor-1 {
		t.Fatalf("CacheHits+Coalesced = %d, want %d", got, gor-1)
	}
}

// TestEngineConcurrentWarmResolves mixes item counts and platform
// suffixes: goroutines resolve shrinking survivor suffixes of one
// platform while others hammer the full platform, all checked against
// fresh solves. At plan-cache capacity 1 every derived plan evicts its
// base while other goroutines may still be resolving from it, so the
// shared rows must outlive their plan's eviction.
func TestEngineConcurrentWarmResolves(t *testing.T) {
	const n = 2500
	procs := linearPlatform(3, 8)
	for _, capacity := range []int{0, 1} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			e := NewEngine(capacity)
			if _, err := e.Solve(procs, n); err != nil {
				t.Fatalf("prime solve: %v", err)
			}

			var wg sync.WaitGroup
			errs := make(chan error, 12)
			for g := 0; g < 12; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					cut := g % 4 // drop the first-served `cut` processors
					sub := procs[cut:]
					m := n - 100*g
					res, _, err := e.SolveDetailed(sub, m)
					if err != nil {
						errs <- err
						return
					}
					want, err := Algorithm2(sub, m)
					if err != nil {
						errs <- err
						return
					}
					if !equalDist(res.Distribution, want.Distribution) || res.Makespan != want.Makespan {
						errs <- fmt.Errorf("suffix cut=%d m=%d: engine %v != fresh %v", cut, m, res.Distribution, want.Distribution)
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestEngineStatsDuringSolve asserts the lock-scope fix directly:
// Stats() must answer while a cold solve is in flight, which the old
// solve-under-lock engine could not do.
func TestEngineStatsDuringSolve(t *testing.T) {
	e := NewEngine(0)
	procs := linearPlatform(5, 6)
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		if _, err := e.Solve(procs, 60000); err != nil {
			t.Errorf("solve: %v", err)
		}
	}()
	<-started
	// While the solve runs (or even after, if it was fast), Stats must
	// not block on it: the call below deadlocks under the old lock
	// scope only when it overlaps the solve, so run it many times to
	// overlap with high probability.
	for i := 0; i < 100; i++ {
		_ = e.Stats()
	}
	<-done
	if st := e.Stats(); st.ColdSolves != 1 {
		t.Fatalf("ColdSolves = %d, want 1", st.ColdSolves)
	}
}

func equalDist(a, b Distribution) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
