package core

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
)

// TestSolveCoarseWithinBand compares the coarse solver against the
// exact DP on random platforms with exact dyadic costs: the coarse
// makespan must bracket the optimum within the machine-checked band,
// and the lower bound must never exceed the true optimum.
func TestSolveCoarseWithinBand(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		p := 1 + rng.Intn(6)
		n := rng.Intn(2000)
		g := 1 + rng.Intn(64)
		var procs []Processor
		if trial%2 == 0 {
			procs = randomLinearProcs(rng, p)
		} else {
			procs = randomAffineProcs(rng, p)
		}
		exact, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := SolveCoarse(procs, n, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := cr.Distribution.Validate(p, n); err != nil {
			t.Fatalf("trial %d (p=%d n=%d g=%d): %v", trial, p, n, g, err)
		}
		if cr.Makespan < exact.Makespan {
			t.Fatalf("trial %d (p=%d n=%d g=%d): coarse %g beats the optimum %g",
				trial, p, n, g, cr.Makespan, exact.Makespan)
		}
		if cr.LowerBound > exact.Makespan {
			t.Fatalf("trial %d (p=%d n=%d g=%d): lower bound %g exceeds the optimum %g",
				trial, p, n, g, cr.LowerBound, exact.Makespan)
		}
		if cr.Makespan-exact.Makespan > cr.Band {
			t.Fatalf("trial %d (p=%d n=%d g=%d): gap %g outside the band %g",
				trial, p, n, g, cr.Makespan-exact.Makespan, cr.Band)
		}
		if cr.Exact && cr.Makespan != exact.Makespan {
			t.Fatalf("trial %d: exact fallback makespan %g != %g", trial, cr.Makespan, exact.Makespan)
		}
	}
}

// TestSolveCoarseRefinementHelps checks that the banded refinement
// never makes the answer worse than the grid-only solution.
func TestSolveCoarseRefinementHelps(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		p := 2 + rng.Intn(5)
		n := 200 + rng.Intn(3000)
		g := 8 + rng.Intn(32)
		procs := randomAffineProcs(rng, p)
		refined, err := SolveCoarse(procs, n, g)
		if err != nil {
			t.Fatal(err)
		}
		gridOnly, err := referenceSolveCoarse(procs, n, g, true)
		if err != nil {
			t.Fatal(err)
		}
		if refined.Makespan > gridOnly.Makespan {
			t.Fatalf("trial %d (p=%d n=%d g=%d): refined %g worse than grid-only %g",
				trial, p, n, g, refined.Makespan, gridOnly.Makespan)
		}
		if refined.Exact != (n <= 4*g) {
			t.Fatalf("trial %d (p=%d n=%d g=%d): Exact = %v", trial, p, n, g, refined.Exact)
		}
	}
}

// TestCoarsenBound machine-checks the a-priori gap on affine
// platforms: even without refinement, the grid optimum stays within
// CoarsenBound of the exact optimum, and Eq. (4)'s GuaranteeBound is
// recovered at g = 1.
func TestCoarsenBound(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 20; trial++ {
		p := 1 + rng.Intn(6)
		n := 100 + rng.Intn(2000)
		g := 4 + rng.Intn(48)
		procs := randomAffineProcs(rng, p)
		exact, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		gridOnly, err := referenceSolveCoarse(procs, n, g, true)
		if err != nil {
			t.Fatal(err)
		}
		if gap, bound := gridOnly.Makespan-exact.Makespan, CoarsenBound(procs, g); gap > bound {
			t.Fatalf("trial %d (p=%d n=%d g=%d): gap %g exceeds CoarsenBound %g",
				trial, p, n, g, gap, bound)
		}
	}
	procs := figure1Procs()
	if got, want := CoarsenBound(procs, 1), GuaranteeBound(procs); got != want {
		t.Errorf("CoarsenBound(procs, 1) = %g, want GuaranteeBound %g", got, want)
	}
}

// TestSolveCoarseExactFallback pins the small-instance fallback: tiny
// n or g = 1 must return the exact distribution bit-identically.
func TestSolveCoarseExactFallback(t *testing.T) {
	procs := figure1Procs()
	for _, tc := range []struct{ n, g int }{{9, 1}, {9, 4}, {40, 10}, {0, 8}} {
		exact, err := Algorithm2(procs, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := SolveCoarse(procs, tc.n, tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if !cr.Exact || cr.Band != 0 || cr.Granularity != 1 {
			t.Fatalf("n=%d g=%d: want exact fallback, got %+v", tc.n, tc.g, cr)
		}
		for i := range exact.Distribution {
			if cr.Distribution[i] != exact.Distribution[i] {
				t.Fatalf("n=%d g=%d: distribution %v != exact %v", tc.n, tc.g, cr.Distribution, exact.Distribution)
			}
		}
	}
}

func TestSolveCoarseValidation(t *testing.T) {
	procs := figure1Procs()
	if _, err := SolveCoarse(procs, 100, 0); err == nil {
		t.Error("granularity 0 accepted")
	}
	if _, err := SolveCoarse(procs, 100, -3); err == nil {
		t.Error("negative granularity accepted")
	}
	if _, err := SolveCoarse(procs, -1, 8); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := SolveCoarse(nil, 100, 8); err == nil {
		t.Error("no processors accepted")
	}
}

func TestSolveCoarseSingleProcessor(t *testing.T) {
	procs := []Processor{{Name: "only", Comm: cost.Zero, Comp: cost.Linear{PerItem: 0.5}}}
	cr, err := SolveCoarse(procs, 1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Distribution[0] != 1000 || cr.Makespan != 500 {
		t.Errorf("cr = %+v, want all 1000 items, makespan 500", cr)
	}
	// One processor has no split to get wrong: the band must be tight
	// enough to include the (optimal) answer it returns.
	if cr.LowerBound > cr.Makespan {
		t.Errorf("lower bound %g above makespan %g", cr.LowerBound, cr.Makespan)
	}
}
