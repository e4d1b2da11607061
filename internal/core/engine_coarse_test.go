package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cost"
)

// coarseTestEngine builds a coarse-refine engine whose coarse path
// triggers at test scale instead of the production 2^17-item floor.
// Its grid step is DefaultGranularity, so a banded answer needs more
// than 4·DefaultGranularity items (coarseItems).
func coarseTestEngine() *Engine {
	return NewEngineConfig(EngineConfig{Policy: PolicyCoarseRefine, CoarseMinItems: 100})
}

// coarseItems is the test scale of a banded coarse-path solve: above
// 4·DefaultGranularity, where the grid solver stops falling back to
// the exact DP.
const coarseItems = 6000

// latencyProcs is figure1Procs with a large fixed latency on every
// link. The certificate's Eq. (3) bound drops fixed costs, so it
// refuses this platform and the grid solver answers with a band.
func latencyProcs() []Processor {
	procs := figure1Procs()
	for i := range procs[:len(procs)-1] {
		procs[i].Comm = cost.Affine{Fixed: 500, PerItem: procs[i].Comm.(cost.Linear).PerItem}
	}
	return procs
}

// TestEngineCoarsePolicy: where the certificate refuses, the coarse
// path answers with the grid solver at DefaultGranularity, labelled
// with the policy and a band that brackets the optimum. Coarse answers
// are not memoized, so a repeat solves again, bit-identically.
func TestEngineCoarsePolicy(t *testing.T) {
	procs := latencyProcs()
	exact, err := Algorithm2(procs, coarseItems)
	if err != nil {
		t.Fatal(err)
	}
	eng := coarseTestEngine()
	res, info, err := eng.SolveDetailed(procs, coarseItems)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceCoarse || info.Policy != PolicyCoarseRefine || info.Certified {
		t.Fatalf("info = %+v, want a banded coarse answer under the configured policy", info)
	}
	if info.Granularity != DefaultGranularity {
		t.Fatalf("granularity = %d, want %d", info.Granularity, DefaultGranularity)
	}
	if res.Makespan < exact.Makespan {
		t.Fatalf("coarse %g beats the optimum %g", res.Makespan, exact.Makespan)
	}
	if res.Makespan-exact.Makespan > info.Bound {
		t.Fatalf("gap %g outside the reported bound %g", res.Makespan-exact.Makespan, info.Bound)
	}
	if info.LowerBound > exact.Makespan {
		t.Fatalf("lower bound %g exceeds the optimum %g", info.LowerBound, exact.Makespan)
	}
	if s := eng.Stats(); s.CoarseSolves != 1 || s.CertifyFallbacks != 1 || s.ColdSolves != 0 {
		t.Fatalf("stats = %+v, want one coarse solve after a refused certificate and no cold ones", s)
	}

	res2, info2, err := eng.SolveDetailed(procs, coarseItems)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "second solve", res2, res)
	if info2 != info {
		t.Fatalf("second solve info = %+v, want %+v", info2, info)
	}
	if s := eng.Stats(); s.CoarseSolves != 2 || s.CacheHits != 0 {
		t.Fatalf("stats after the repeat = %+v, want a second coarse solve", s)
	}
}

// TestEngineCoarseCertified: on a linear platform the coarse path
// answers with the certified exact solve — Algorithm 2's answer,
// labelled exact, zero band, the makespan as lower bound — and a
// repeat certifies again with the same labels.
func TestEngineCoarseCertified(t *testing.T) {
	procs := table1Procs()
	const n = 20000
	exact, err := Algorithm2(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	eng := coarseTestEngine()
	for solve := 1; solve <= 2; solve++ {
		res, info, err := eng.SolveDetailed(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("solve %d", solve), res, exact)
		if info.Source != SourceCoarse || info.Policy != PolicyExact || !info.Certified ||
			info.Bound != 0 || !sameBits(info.LowerBound, res.Makespan) || info.Granularity != 0 {
			t.Fatalf("solve %d: info = %+v, want a certified exact answer", solve, info)
		}
	}
	if s := eng.Stats(); s.CoarseSolves != 2 || s.Certified != 2 || s.CertifyFallbacks != 0 || s.CacheHits != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestEngineCoarseExactFallbackLowerBound: the grid solver's exact
// fallback (n <= 4·DefaultGranularity) reports the makespan as its
// lower bound too, so Bound/LowerBound is 0 on every exact coarse-path
// answer. Measured cost tables are not affine, so the certificate is
// never tried.
func TestEngineCoarseExactFallbackLowerBound(t *testing.T) {
	const n = 4 * DefaultGranularity
	rng := rand.New(rand.NewSource(20))
	procs := randomTableProcs(rng, 4, n)
	eng := coarseTestEngine()
	res, info, err := eng.SolveDetailed(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Algorithm2(procs, n)
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
	eng := coarseTestEngine()
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
// solves share one solve: every caller either ran a coarse solve or
// waited on one, and all get the same distribution.
func TestEngineCoarseCoalesce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	procs := randomTableProcs(rng, 4, coarseItems)
	eng := coarseTestEngine()
	const callers = 8
	var wg sync.WaitGroup
	results := make([]Result, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], _, errs[c] = eng.SolveDetailed(procs, coarseItems)
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		requireSameResult(t, fmt.Sprintf("caller %d", c), results[c], results[0])
	}
	if s := eng.Stats(); s.CoarseSolves+s.Coalesced != callers || s.CacheHits != 0 {
		t.Fatalf("stats = %+v, want every caller accounted for by a coarse solve or a coalesced wait", s)
	}
}

func TestEngineConfigDefaults(t *testing.T) {
	eng := NewEngineConfig(EngineConfig{})
	if eng.coarseMin != DefaultCoarseMinItems || eng.policy != PolicyExact {
		t.Errorf("defaults not applied: min=%d policy=%v", eng.coarseMin, eng.policy)
	}
}
