package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cost"
)

func TestBestOrderingFindsOptimum(t *testing.T) {
	// A platform where the Theorem 3 ordering is provably optimal
	// (linear costs): the exhaustive search must agree with it.
	procs := []Processor{
		{Name: "P1", Comm: cost.Linear{PerItem: 3}, Comp: cost.Linear{PerItem: 1}},
		{Name: "P2", Comm: cost.Linear{PerItem: 1}, Comp: cost.Linear{PerItem: 2}},
		{Name: "P3", Comm: cost.Linear{PerItem: 2}, Comp: cost.Linear{PerItem: 1}},
		{Name: "root", Comm: cost.Zero, Comp: cost.Linear{PerItem: 1}},
	}
	study, err := ExhaustiveOrdering(procs, 60, Algorithm2)
	if err != nil {
		t.Fatal(err)
	}
	best := study.Best
	if study.Orderings != 6 {
		t.Errorf("searched %d orderings, want 3! = 6", study.Orderings)
	}
	policyOrder := OrderDecreasingBandwidth(procs, 3)
	policyRes, err := Algorithm2(Permute(procs, policyOrder), 60)
	if err != nil {
		t.Fatal(err)
	}
	if best.Result.Makespan > policyRes.Makespan+1e-9 {
		t.Errorf("exhaustive best %g worse than the policy %g", best.Result.Makespan, policyRes.Makespan)
	}
	// The root stays last in the returned order.
	if best.Order[len(best.Order)-1] != 3 {
		t.Errorf("root moved: order %v", best.Order)
	}
	if err := best.Result.Distribution.Validate(4, 60); err != nil {
		t.Fatal(err)
	}
}

func TestBestOrderingBeatsEveryPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 10; trial++ {
		p := 2 + rng.Intn(3)
		procs := randomAffineProcs(rng, p)
		n := 5 + rng.Intn(25)
		study, err := ExhaustiveOrdering(procs, n, Algorithm2)
		if err != nil {
			t.Fatal(err)
		}
		best, worst := study.Best, study.Worst
		// Probe a few random permutations.
		for probe := 0; probe < 5; probe++ {
			perm := rng.Perm(p - 1)
			order := append(perm, p-1)
			res, err := Algorithm2(Permute(procs, order), n)
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan < best.Result.Makespan-1e-9 {
				t.Errorf("trial %d: permutation %v beats the 'best' ordering: %g < %g",
					trial, order, res.Makespan, best.Result.Makespan)
			}
			if res.Makespan > worst.Result.Makespan+1e-9 {
				t.Errorf("trial %d: permutation %v is worse than the 'worst' ordering: %g > %g",
					trial, order, res.Makespan, worst.Result.Makespan)
			}
		}
	}
}

func TestBestOrderingGuards(t *testing.T) {
	big := make([]Processor, MaxExhaustiveOrderingProcs+1)
	for i := range big {
		big[i] = Processor{Name: "x", Comm: cost.Zero, Comp: cost.Zero}
	}
	if _, err := ExhaustiveOrdering(big, 10, Algorithm2); err == nil {
		t.Error("oversized exhaustive search accepted")
	}
	if _, err := ExhaustiveOrdering(nil, 10, Algorithm2); err == nil {
		t.Error("empty processors accepted")
	}
	small := []Processor{{Name: "x", Comm: cost.Zero, Comp: cost.Linear{PerItem: 1}}}
	if _, err := ExhaustiveOrdering(small, 10, nil); err == nil {
		t.Error("nil solver accepted")
	}
}

func TestBestOrderingSingleProcessor(t *testing.T) {
	procs := []Processor{{Name: "solo", Comm: cost.Zero, Comp: cost.Linear{PerItem: 2}}}
	study, err := ExhaustiveOrdering(procs, 5, Algorithm2)
	if err != nil {
		t.Fatal(err)
	}
	if best := study.Best; best.Result.Makespan != 10 || len(best.Order) != 1 || study.Orderings != 1 {
		t.Errorf("solo result = %+v", study)
	}
}

func TestOrderingStudyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 8; trial++ {
		p := 2 + rng.Intn(3)
		procs := randomLinearProcs(rng, p)
		n := 20 + rng.Intn(40)
		study, err := ExhaustiveOrdering(procs, n, Algorithm2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Algorithm2(Permute(procs, OrderDecreasingBandwidth(procs, p-1)), n)
		if err != nil {
			t.Fatal(err)
		}
		policy, best, worst := res.Makespan, study.Best.Result.Makespan, study.Worst.Result.Makespan
		if best > policy+1e-9 || policy > worst+1e-9 {
			t.Errorf("trial %d: best %g <= policy %g <= worst %g violated", trial, best, policy, worst)
		}
	}
}

func TestOrderingStudyGuard(t *testing.T) {
	big := make([]Processor, MaxExhaustiveOrderingProcs+1)
	for i := range big {
		big[i] = Processor{Name: "x", Comm: cost.Zero, Comp: cost.Zero}
	}
	_, err := ExhaustiveOrdering(big, 10, Algorithm2)
	if err == nil || !strings.Contains(err.Error(), "Theorem 3 policy") {
		t.Errorf("oversized study: err = %v, want a pointer to the Theorem 3 policy", err)
	}
}

func TestFactorial(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 4: 24, 6: 720} {
		if got := factorial(n); got != want {
			t.Errorf("factorial(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestExhaustiveOrderingTiesKeepFirstOrder(t *testing.T) {
	// Identical workers tie on every ordering: the first one found, the
	// identity, must be both the best and the worst.
	w := Processor{Name: "w", Comm: cost.Linear{PerItem: 1}, Comp: cost.Linear{PerItem: 2}}
	procs := []Processor{w, w, w, {Name: "root", Comm: cost.Zero, Comp: cost.Linear{PerItem: 2}}}
	study, err := ExhaustiveOrdering(procs, 30, Algorithm2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []OrderedResult{study.Best, study.Worst} {
		for i, idx := range r.Order {
			if idx != i {
				t.Fatalf("tie broken away from the first ordering: %v", r.Order)
			}
		}
	}
}
