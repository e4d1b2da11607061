package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// coarseTestEngine builds an engine whose coarse path triggers at test
// scale instead of the production 2^17-item floor.
func coarseTestEngine(policy SolvePolicy) *Engine {
	return NewEngineConfig(EngineConfig{
		Policy:         policy,
		Granularity:    16,
		CoarseMinItems: 100,
	})
}

func TestEngineCoarsePolicy(t *testing.T) {
	procs := figure1Procs()
	n := 1500
	exact, err := Algorithm2(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []SolvePolicy{PolicyCoarseRefine, PolicyCoarseOnly} {
		eng := coarseTestEngine(policy)
		res, info, err := eng.SolveDetailed(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if info.Source != SourceCoarse || info.Policy != policy {
			t.Fatalf("%v: info = %+v, want coarse source with the configured policy", policy, info)
		}
		if info.Granularity != 16 {
			t.Fatalf("%v: granularity = %d, want 16", policy, info.Granularity)
		}
		if res.Makespan < exact.Makespan {
			t.Fatalf("%v: coarse %g beats the optimum %g", policy, res.Makespan, exact.Makespan)
		}
		if res.Makespan-exact.Makespan > info.Bound {
			t.Fatalf("%v: gap %g outside the reported bound %g", policy, res.Makespan-exact.Makespan, info.Bound)
		}
		if info.LowerBound > exact.Makespan {
			t.Fatalf("%v: lower bound %g exceeds the optimum %g", policy, info.LowerBound, exact.Makespan)
		}
		if s := eng.Stats(); s.CoarseSolves != 1 || s.ColdSolves != 0 {
			t.Fatalf("%v: stats = %+v, want one coarse solve and no cold ones", policy, s)
		}

		// Second identical solve: answered from the coarse memo, same
		// distribution, no new DP work.
		res2, info2, err := eng.SolveDetailed(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if info2.Source != SourceCacheHit || info2.Bound != info.Bound {
			t.Fatalf("%v: second solve info = %+v, want a cache hit with the same band", policy, info2)
		}
		for i := range res.Distribution {
			if res2.Distribution[i] != res.Distribution[i] {
				t.Fatalf("%v: cached distribution %v != first %v", policy, res2.Distribution, res.Distribution)
			}
		}
		if s := eng.Stats(); s.CoarseSolves != 1 || s.CacheHits != 1 {
			t.Fatalf("%v: stats after hit = %+v", policy, s)
		}
	}
}

// TestEngineCoarseCertified: on a linear platform both coarse
// policies answer with the certified exact solve — Algorithm 2's
// answer, labelled exact, zero band, the makespan as lower bound — and
// the memo replays it with the same labels.
func TestEngineCoarseCertified(t *testing.T) {
	procs := table1Procs()
	const n = 20000
	exact, err := Algorithm2(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []SolvePolicy{PolicyCoarseRefine, PolicyCoarseOnly} {
		eng := coarseTestEngine(policy)
		for _, src := range []SolveSource{SourceCoarse, SourceCacheHit} {
			res, info, err := eng.SolveDetailed(procs, n)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("%v %v", policy, src), res, exact)
			if info.Source != src || info.Policy != PolicyExact || !info.Certified ||
				info.Bound != 0 || !sameBits(info.LowerBound, res.Makespan) || info.Granularity != 0 {
				t.Fatalf("%v: info = %+v, want a certified exact answer from %v", policy, info, src)
			}
		}
		if s := eng.Stats(); s.CoarseSolves != 1 || s.Certified != 1 || s.CertifyFallbacks != 0 || s.CacheHits != 1 {
			t.Fatalf("%v: stats = %+v", policy, s)
		}
	}
}

// TestEngineCoarseExactFallbackLowerBound: the grid solver's exact
// fallback (n <= 4g) reports the makespan as its lower bound too, so
// Bound/LowerBound is 0 on every exact coarse-path answer. Measured
// cost tables are not affine, so the certificate is never tried.
func TestEngineCoarseExactFallbackLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	procs := randomTableProcs(rng, 4, 200)
	eng := NewEngineConfig(EngineConfig{Policy: PolicyCoarseRefine, Granularity: 64, CoarseMinItems: 10})
	res, info, err := eng.SolveDetailed(procs, 200)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Algorithm2(procs, 200)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "exact fallback", res, exact)
	if info.Source != SourceCoarse || info.Policy != PolicyExact || info.Certified ||
		info.Bound != 0 || !sameBits(info.LowerBound, res.Makespan) || info.Bound/info.LowerBound != 0 {
		t.Fatalf("info = %+v, want an exact answer with the makespan as lower bound", info)
	}
	if s := eng.Stats(); s.CoarseSolves != 1 || s.Certified != 0 || s.CertifyFallbacks != 0 {
		t.Fatalf("stats = %+v, want one coarse solve and no certificate attempt", s)
	}
}

// TestEngineCoarseSmallSolvesStayExact pins the CoarseMinItems gate: a
// coarse-policy engine still answers small solves with the exact plan
// machinery, bit-identically, and retains the plan for warm starts.
func TestEngineCoarseSmallSolvesStayExact(t *testing.T) {
	procs := figure1Procs()
	eng := coarseTestEngine(PolicyCoarseRefine)
	exact, err := Algorithm2(procs, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, info, err := eng.SolveDetailed(procs, 99)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceCold || info.Policy != PolicyExact || info.Bound != 0 {
		t.Fatalf("info = %+v, want an exact cold solve with zero band", info)
	}
	for i := range exact.Distribution {
		if res.Distribution[i] != exact.Distribution[i] {
			t.Fatalf("distribution %v != exact %v", res.Distribution, exact.Distribution)
		}
	}
	if s := eng.Stats(); s.ColdSolves != 1 || s.CoarseSolves != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestEngineCoarseCoalesce checks that identical in-flight coarse
// solves share one DP.
func TestEngineCoarseCoalesce(t *testing.T) {
	procs := figure1Procs()
	eng := coarseTestEngine(PolicyCoarseRefine)
	const callers = 8
	var wg sync.WaitGroup
	results := make([]Result, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], _, errs[c] = eng.SolveDetailed(procs, 2000)
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		for i := range results[0].Distribution {
			if results[c].Distribution[i] != results[0].Distribution[i] {
				t.Fatalf("caller %d distribution %v != %v", c, results[c].Distribution, results[0].Distribution)
			}
		}
	}
	if s := eng.Stats(); s.CoarseSolves+s.CacheHits+s.Coalesced != callers {
		t.Fatalf("stats = %+v, want every caller accounted for", s)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []SolvePolicy{PolicyExact, PolicyCoarseRefine, PolicyCoarseOnly} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("approximate"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestEngineConfigDefaults(t *testing.T) {
	eng := NewEngineConfig(EngineConfig{})
	if eng.gran != DefaultGranularity || eng.coarseMin != DefaultCoarseMinItems || eng.policy != PolicyExact {
		t.Errorf("defaults not applied: gran=%d min=%d policy=%v", eng.gran, eng.coarseMin, eng.policy)
	}
}
