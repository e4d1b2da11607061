package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cost"
)

// routes returns eng's counters without its cell count: the tests
// here pin which route answered, TestEngineCells the work it took.
func routes(eng *Engine) EngineStats {
	s := eng.Stats()
	s.Cells = 0
	return s
}

// coarseTestEngine builds a coarse-refine engine whose certificate is
// tried at test scale instead of the production 2^17-item floor.
func coarseTestEngine() *Engine {
	return NewEngineConfig(EngineConfig{Policy: PolicyCoarseRefine, CoarseMinItems: 100})
}

// latencyProcs is figure1Procs with a large fixed latency on every
// link. The certificate's Eq. (3) bound drops fixed costs, so it
// refuses this platform.
func latencyProcs() []Processor {
	procs := figure1Procs()
	for i := range procs[:len(procs)-1] {
		procs[i].Comm = cost.Affine{Fixed: 500, PerItem: procs[i].Comm.(cost.Linear).PerItem}
	}
	return procs
}

// TestEngineCoarsePolicy: where the certificate refuses, the coarse
// path counts the refusal and takes the exact path, which retains its
// plan, so a repeat and a smaller solve are cache hits. Every answer is
// Algorithm 2's bit for bit.
func TestEngineCoarsePolicy(t *testing.T) {
	procs := latencyProcs()
	eng := coarseTestEngine()
	const n = 6000
	for _, tc := range []struct {
		n    int
		want SolveSource
	}{{n, SourceCold}, {n, SourceCacheHit}, {n / 2, SourceCacheHit}} {
		exact, err := Algorithm2(procs, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		res, info, err := eng.SolveDetailed(procs, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("n=%d", tc.n), res, exact)
		if info.Source != tc.want || info.Bound != 0 || info.LowerBound != 0 {
			t.Fatalf("n=%d: info = %+v, want an exact answer from %v", tc.n, info, tc.want)
		}
	}
	if s := routes(eng); s != (EngineStats{ColdSolves: 1, CacheHits: 2, CertifyFallbacks: 1}) {
		t.Fatalf("stats = %+v, want one cold solve after a refused certificate, then cache hits", s)
	}
}

// TestEngineCoarseCertified: on a linear platform the coarse path
// answers with the certified exact solve — Algorithm 2's answer, zero
// band, the makespan as lower bound. A certified answer retains no
// plan, so a repeat certifies again.
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
		if info.Source != SourceCoarse || info.Bound != 0 || !sameBits(info.LowerBound, res.Makespan) {
			t.Fatalf("solve %d: info = %+v, want a certified exact answer", solve, info)
		}
	}
	if s := routes(eng); s != (EngineStats{CoarseSolves: 2}) {
		t.Fatalf("stats = %+v", s)
	}
}

// TestEngineCoarseExactFallbackLowerBound: measured cost tables are not
// affine, so the certificate does not apply. The coarse path takes the
// exact cold solve without counting a refusal, and reports no lower
// bound, like every exact source but a certified one.
func TestEngineCoarseExactFallbackLowerBound(t *testing.T) {
	const n = 4096
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
	if info.Source != SourceCold || info.Bound != 0 || info.LowerBound != 0 {
		t.Fatalf("info = %+v, want an exact cold solve", info)
	}
	if s := routes(eng); s != (EngineStats{ColdSolves: 1}) {
		t.Fatalf("stats = %+v, want one cold solve and no certificate refusal", s)
	}
}

// TestEngineCoarseSmallSolvesStayExact pins the CoarseMinItems gate: a
// coarse-policy engine answers solves under it without trying the
// certificate, bit-identically, and retains the plan for warm starts.
func TestEngineCoarseSmallSolvesStayExact(t *testing.T) {
	procs := table1Procs()
	eng := coarseTestEngine()
	exact, err := Algorithm2(procs, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, info, err := eng.SolveDetailed(procs, 99)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "n=99", res, exact)
	if info.Source != SourceCold || info.Bound != 0 {
		t.Fatalf("info = %+v, want an exact cold solve with zero band", info)
	}
	if s := routes(eng); s != (EngineStats{ColdSolves: 1}) {
		t.Fatalf("stats = %+v", s)
	}
}

// TestEngineCoarseCoalesce checks that identical in-flight certified
// solves share one solve: every caller either certified or waited on a
// caller that did, and all get Algorithm 2's distribution.
func TestEngineCoarseCoalesce(t *testing.T) {
	procs := table1Procs()
	const n = 20000
	exact, err := Algorithm2(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	eng := coarseTestEngine()
	const callers = 8
	var wg sync.WaitGroup
	results := make([]Result, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], _, errs[c] = eng.SolveDetailed(procs, n)
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		requireSameResult(t, fmt.Sprintf("caller %d", c), results[c], exact)
	}
	if s := eng.Stats(); s.CoarseSolves+s.Coalesced != callers || s.CoarseSolves < 1 || s.ColdSolves+s.CacheHits != 0 {
		t.Fatalf("stats = %+v, want every caller accounted for by a certified solve or a coalesced wait", s)
	}
}

func TestEngineConfigDefaults(t *testing.T) {
	eng := NewEngineConfig(EngineConfig{})
	if eng.coarseMin != DefaultCoarseMinItems || eng.policy != PolicyExact {
		t.Errorf("defaults not applied: min=%d policy=%v", eng.coarseMin, eng.policy)
	}
}
