package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
)

// randomLinearProcs draws processors with small integer-grid alpha/beta
// so cost comparisons are exact in float64.
func randomLinearProcs(rng *rand.Rand, p int) []Processor {
	procs := make([]Processor, p)
	for i := range procs {
		procs[i] = Processor{
			Name: "P" + string(rune('1'+i)),
			Comm: cost.Linear{PerItem: float64(rng.Intn(8)) * 0.25},
			Comp: cost.Linear{PerItem: float64(1+rng.Intn(8)) * 0.25},
		}
	}
	// Root last, free link.
	procs[p-1].Comm = cost.Zero
	return procs
}

// randomAffineProcs draws processors with affine costs on an exact grid.
func randomAffineProcs(rng *rand.Rand, p int) []Processor {
	procs := make([]Processor, p)
	for i := range procs {
		procs[i] = Processor{
			Name: "A" + string(rune('1'+i)),
			Comm: cost.Affine{Fixed: float64(rng.Intn(4)) * 0.5, PerItem: float64(rng.Intn(8)) * 0.25},
			Comp: cost.Affine{Fixed: float64(rng.Intn(4)) * 0.5, PerItem: float64(1+rng.Intn(8)) * 0.25},
		}
	}
	procs[p-1].Comm = cost.Zero
	return procs
}

func TestAlgorithm1SingleProcessor(t *testing.T) {
	procs := []Processor{{Name: "only", Comm: cost.Zero, Comp: cost.Linear{PerItem: 2}}}
	res, err := Algorithm1(procs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distribution[0] != 7 || res.Makespan != 14 {
		t.Errorf("res = %+v, want all 7 items, makespan 14", res)
	}
}

func TestAlgorithm1ZeroItems(t *testing.T) {
	res, err := Algorithm1(figure1Procs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distribution.Sum() != 0 || res.Makespan != 0 {
		t.Errorf("res = %+v, want empty distribution", res)
	}
}

func TestAlgorithm1FewerItemsThanProcessors(t *testing.T) {
	res, err := Algorithm1(figure1Procs(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Distribution.Validate(4, 2); err != nil {
		t.Fatal(err)
	}
	bf, err := BruteForce(figure1Procs(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != bf.Makespan {
		t.Errorf("makespan = %g, brute force %g", res.Makespan, bf.Makespan)
	}
}

func TestAlgorithm1InputValidation(t *testing.T) {
	if _, err := Algorithm1(nil, 3); err == nil {
		t.Error("nil processors accepted")
	}
	if _, err := Algorithm1(figure1Procs(), -1); err == nil {
		t.Error("negative n accepted")
	}
}

func TestAlgorithm1MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		p := 1 + rng.Intn(4)
		n := rng.Intn(9)
		procs := randomLinearProcs(rng, p)
		got, err := Algorithm1(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Distribution.Validate(p, n); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Makespan != want.Makespan {
			t.Errorf("trial %d (p=%d n=%d): Algorithm1 makespan %g, brute force %g (dist %v vs %v)",
				trial, p, n, got.Makespan, want.Makespan, got.Distribution, want.Distribution)
		}
	}
}

func TestAlgorithm1MatchesBruteForceAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		p := 1 + rng.Intn(3)
		n := rng.Intn(8)
		procs := randomAffineProcs(rng, p)
		got, err := Algorithm1(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan {
			t.Errorf("trial %d: Algorithm1 %g, brute force %g", trial, got.Makespan, want.Makespan)
		}
	}
}

// TestAlgorithm1GeneralCosts exercises the DP with non-monotone cost
// functions, which only Algorithm 1 supports.
func TestAlgorithm1GeneralCosts(t *testing.T) {
	// Computation gets cheaper per item in bulk (e.g. vectorization):
	// non-affine, but still non-negative and null at zero.
	bulk := cost.Func(func(x int) float64 { return 10 * math.Sqrt(float64(x)) })
	procs := []Processor{
		{Name: "bulk", Comm: cost.Linear{PerItem: 0.5}, Comp: bulk},
		{Name: "root", Comm: cost.Zero, Comp: cost.Linear{PerItem: 2}},
	}
	got, err := Algorithm1(procs, 12)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(procs, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Errorf("Algorithm1 %g, brute force %g", got.Makespan, want.Makespan)
	}
}

// TestAlgorithm2MatchesAlgorithm1: on increasing costs both DPs keep
// the same tie rule, so they agree on the distribution bit for bit,
// not just on the makespan.
func TestAlgorithm2MatchesAlgorithm1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := 1 + rng.Intn(5)
		n := rng.Intn(40)
		var procs []Processor
		if trial%2 == 0 {
			procs = randomLinearProcs(rng, p)
		} else {
			procs = randomAffineProcs(rng, p)
		}
		a1, err := Algorithm1(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := a2.Distribution.Validate(p, n); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sameBits(a1.Makespan, a2.Makespan) || !equalDist(a1.Distribution, a2.Distribution) {
			t.Errorf("trial %d (p=%d n=%d): Algorithm1 %v (%g) != Algorithm2 %v (%g)",
				trial, p, n, a1.Distribution, a1.Makespan, a2.Distribution, a2.Makespan)
		}
	}
}

func TestAlgorithm2Table1Shape(t *testing.T) {
	// A miniature of the paper's experiment: heterogeneous linear
	// processors; the balanced makespan must beat the uniform one.
	procs := []Processor{
		{Name: "caseb", Comm: cost.Linear{PerItem: 1.00e-5}, Comp: cost.Linear{PerItem: 0.004629}},
		{Name: "pellinore", Comm: cost.Linear{PerItem: 1.12e-5}, Comp: cost.Linear{PerItem: 0.009365}},
		{Name: "seven", Comm: cost.Linear{PerItem: 2.10e-5}, Comp: cost.Linear{PerItem: 0.016156}},
		{Name: "merlin", Comm: cost.Linear{PerItem: 8.15e-5}, Comp: cost.Linear{PerItem: 0.003976}},
		{Name: "dinadan", Comm: cost.Zero, Comp: cost.Linear{PerItem: 0.009288}},
	}
	n := 5000
	opt, err := Algorithm2(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	uni := Makespan(procs, Uniform(len(procs), n))
	if opt.Makespan >= uni {
		t.Errorf("balanced %g not better than uniform %g", opt.Makespan, uni)
	}
	// The finish times of the balanced run should be nearly equal
	// (simultaneous endings, Theorem 2 conditions hold here).
	ft := FinishTimes(procs, opt.Distribution)
	min, max := ft[0], ft[0]
	for _, f := range ft {
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	if (max-min)/max > 0.02 {
		t.Errorf("balanced finish times spread %g%% (%v)", 100*(max-min)/max, ft)
	}
}

func TestAlgorithm2LargeNSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	procs := figure1Procs()
	res, err := Algorithm2(procs, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Distribution.Validate(4, 5000); err != nil {
		t.Fatal(err)
	}
}

// TestDPOptimalityInvariant checks, on random instances, that no
// single-item move between two processors improves the DP's makespan —
// a local-optimality property implied by global optimality.
func TestDPOptimalityInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		p := 2 + rng.Intn(4)
		n := 5 + rng.Intn(30)
		procs := randomLinearProcs(rng, p)
		res, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		for from := 0; from < p; from++ {
			if res.Distribution[from] == 0 {
				continue
			}
			for to := 0; to < p; to++ {
				if to == from {
					continue
				}
				moved := append(Distribution(nil), res.Distribution...)
				moved[from]--
				moved[to]++
				if m := Makespan(procs, moved); m < res.Makespan-1e-9 {
					t.Errorf("trial %d: moving one item %d->%d improves %g to %g (dist %v)",
						trial, from, to, res.Makespan, m, res.Distribution)
				}
			}
		}
	}
}
