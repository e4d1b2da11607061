package core

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
)

func TestHeuristicMatchesDPOnLinear(t *testing.T) {
	// On linear instances the heuristic's makespan must stay within
	// the Eq. (4) guarantee of the exact DP optimum.
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		p := 1 + rng.Intn(5)
		procs := randomLinearProcs(rng, p)
		n := 1 + rng.Intn(80)
		h, err := Heuristic(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Distribution.Validate(p, n); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		bound := GuaranteeBound(procs)
		if h.Makespan < opt.Makespan-1e-9 {
			t.Errorf("trial %d: heuristic %g beats the optimum %g", trial, h.Makespan, opt.Makespan)
		}
		if h.Makespan > opt.Makespan+bound+1e-9 {
			t.Errorf("trial %d: heuristic %g exceeds optimum %g + bound %g",
				trial, h.Makespan, opt.Makespan, bound)
		}
	}
}

func TestHeuristicWithinGuaranteeOnAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		p := 1 + rng.Intn(4)
		procs := randomAffineProcs(rng, p)
		n := 1 + rng.Intn(50)
		h, err := Heuristic(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		bound := GuaranteeBound(procs)
		if h.Makespan > opt.Makespan+bound+1e-9 {
			t.Errorf("trial %d: heuristic %g exceeds optimum %g + bound %g (p=%d n=%d)",
				trial, h.Makespan, opt.Makespan, bound, p, n)
		}
	}
}

func TestHeuristicRationalIsLowerBoundForItsOrdering(t *testing.T) {
	// The LP relaxation never exceeds the integer optimum... for cost
	// functions that are genuinely affine on all of [0, n] (the LP
	// charges fixed costs even at share 0, so we use pure linear costs
	// here where the subtlety vanishes).
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		p := 1 + rng.Intn(5)
		procs := randomLinearProcs(rng, p)
		n := 1 + rng.Intn(60)
		aps, err := ExtractAffine(procs)
		if err != nil {
			t.Fatal(err)
		}
		rat, err := HeuristicRational(aps, n)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		ratT, _ := rat.Makespan.Float64()
		if opt.Makespan < ratT-1e-9 {
			t.Errorf("trial %d: integer optimum %g below the LP bound %g", trial, opt.Makespan, ratT)
		}
	}
}

func TestHeuristicRationalSharesSumToN(t *testing.T) {
	aps := []AffineProcessor{
		{Name: "a", CommFixed: 0.5, CommPerItem: 0.25, CompFixed: 1, CompPerItem: 2},
		{Name: "b", CommFixed: 0, CommPerItem: 0.5, CompFixed: 0, CompPerItem: 1},
		{Name: "root", CompPerItem: 1.5},
	}
	rat, err := HeuristicRational(aps, 97)
	if err != nil {
		t.Fatal(err)
	}
	sum := new(big.Rat)
	for _, s := range rat.Shares {
		if s.Sign() < 0 {
			t.Errorf("negative rational share %s", s.RatString())
		}
		sum.Add(sum, s)
	}
	if sum.Cmp(new(big.Rat).SetInt64(97)) != 0 {
		t.Errorf("rational shares sum to %s, want 97", sum.RatString())
	}
}

func TestHeuristicRationalEqualsClosedFormOnLinear(t *testing.T) {
	// For linear costs, the LP relaxation optimum must coincide with
	// the Theorem 1 closed form (both are the exact rational optimum).
	lps := []LinearProcessor{
		{Name: "P1", Alpha: 0.25, Beta: 1.5},
		{Name: "P2", Alpha: 0.5, Beta: 0.75},
		{Name: "root", Alpha: 0, Beta: 1},
	}
	n := 500
	cf, err := SolveLinearRational(lps, n)
	if err != nil {
		t.Fatal(err)
	}
	aps, err := ExtractAffine(LinearProcessors(lps))
	if err != nil {
		t.Fatal(err)
	}
	lpSol, err := HeuristicRational(aps, n)
	if err != nil {
		t.Fatal(err)
	}
	lpT, _ := lpSol.Makespan.Float64()
	if math.Abs(lpT-cf.Makespan) > 1e-9*cf.Makespan {
		t.Errorf("LP relaxation %g != closed form %g", lpT, cf.Makespan)
	}
}

func TestHeuristicErrors(t *testing.T) {
	if _, err := Heuristic(nil, 5); err == nil {
		t.Error("no processors accepted")
	}
	nonAffine := []Processor{{
		Name: "sqrt",
		Comm: cost.Zero,
		Comp: cost.Func(func(x int) float64 { return math.Sqrt(float64(x)) }),
	}}
	if _, err := Heuristic(nonAffine, 5); err == nil {
		t.Error("non-affine computation cost accepted")
	}
	if _, err := HeuristicRational(nil, 5); err == nil {
		t.Error("empty affine list accepted")
	}
	if _, err := HeuristicRational([]AffineProcessor{{CompPerItem: 1}}, -2); err == nil {
		t.Error("negative n accepted")
	}
}

func TestExtractAffineRoundTrip(t *testing.T) {
	aps := []AffineProcessor{
		{Name: "x", CommFixed: 0.5, CommPerItem: 0.25, CompFixed: 2, CompPerItem: 1},
		{Name: "root", CommFixed: 0, CommPerItem: 0, CompFixed: 0, CompPerItem: 3},
	}
	procs := []Processor{aps[0].Processor(), aps[1].Processor()}
	got, err := ExtractAffine(procs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range aps {
		if math.Abs(got[i].CommFixed-aps[i].CommFixed) > 1e-12 ||
			math.Abs(got[i].CommPerItem-aps[i].CommPerItem) > 1e-12 ||
			math.Abs(got[i].CompFixed-aps[i].CompFixed) > 1e-12 ||
			math.Abs(got[i].CompPerItem-aps[i].CompPerItem) > 1e-12 {
			t.Errorf("round trip: got %+v, want %+v", got[i], aps[i])
		}
	}
}

func TestGuaranteeBound(t *testing.T) {
	procs := []Processor{
		{Comm: cost.Linear{PerItem: 2}, Comp: cost.Linear{PerItem: 5}},
		{Comm: cost.Linear{PerItem: 3}, Comp: cost.Linear{PerItem: 1}},
	}
	// sum Tcomm(j,1) = 5; max Tcomp(i,1) = 5.
	if got := GuaranteeBound(procs); got != 10 {
		t.Errorf("GuaranteeBound = %g, want 10", got)
	}
}

func TestRoundRatSharesExact(t *testing.T) {
	shares := []*big.Rat{big.NewRat(7, 2), big.NewRat(5, 2), big.NewRat(4, 1)}
	dist, err := RoundRatShares(shares, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Sum() != 10 {
		t.Errorf("rounded sum = %d, want 10", dist.Sum())
	}
	for i, s := range shares {
		f, _ := s.Float64()
		if math.Abs(float64(dist[i])-f) >= 1+1e-9 {
			t.Errorf("share %d moved from %g to %d (>= 1)", i, f, dist[i])
		}
	}
}

func TestRoundRatSharesAlreadyInteger(t *testing.T) {
	shares := []*big.Rat{big.NewRat(3, 1), big.NewRat(0, 1), big.NewRat(7, 1)}
	dist, err := RoundRatShares(shares, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := Distribution{3, 0, 7}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist = %v, want %v", dist, want)
			break
		}
	}
}

func TestRoundRatSharesSingle(t *testing.T) {
	dist, err := RoundRatShares([]*big.Rat{big.NewRat(5, 1)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 5 {
		t.Errorf("dist = %v, want [5]", dist)
	}
}

func TestRoundRatSharesErrors(t *testing.T) {
	if _, err := RoundRatShares(nil, 0); err == nil {
		t.Error("empty shares accepted")
	}
	if _, err := RoundRatShares([]*big.Rat{big.NewRat(1, 2)}, 5); err == nil {
		t.Error("wrong sum accepted")
	}
	if _, err := RoundRatShares([]*big.Rat{big.NewRat(-1, 1), big.NewRat(6, 1)}, 5); err == nil {
		t.Error("negative share accepted")
	}
	if _, err := RoundRatShares([]*big.Rat{nil}, 0); err == nil {
		t.Error("nil share accepted")
	}
}

// TestRoundRatSharesProperty: for random rational shares summing to n,
// the rounding preserves the sum and moves every share by less than 1.
func TestRoundRatSharesProperty(t *testing.T) {
	f := func(numerators []uint16, denom uint8) bool {
		if len(numerators) == 0 {
			return true
		}
		if len(numerators) > 12 {
			numerators = numerators[:12]
		}
		d := int64(denom%7) + 1
		shares := make([]*big.Rat, len(numerators))
		total := new(big.Rat)
		for i, num := range numerators {
			shares[i] = big.NewRat(int64(num%1000), d)
			total.Add(total, shares[i])
		}
		// Top up the last share to reach the next integer total.
		floorTotal := new(big.Int).Quo(total.Num(), total.Denom())
		nBig := new(big.Int).Add(floorTotal, big.NewInt(1))
		topUp := new(big.Rat).Sub(new(big.Rat).SetInt(nBig), total)
		shares[len(shares)-1].Add(shares[len(shares)-1], topUp)
		n := int(nBig.Int64())

		dist, err := RoundRatShares(shares, n)
		if err != nil {
			return false
		}
		if dist.Sum() != n {
			return false
		}
		for i, s := range dist {
			diff := new(big.Rat).Sub(new(big.Rat).SetInt64(int64(s)), shares[i])
			if diff.Cmp(big.NewRat(1, 1)) >= 0 || diff.Cmp(big.NewRat(-1, 1)) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRoundSharesFloat(t *testing.T) {
	dist := RoundShares([]float64{2.5, 3.5, 4}, 10)
	if dist.Sum() != 10 {
		t.Errorf("sum = %d, want 10", dist.Sum())
	}
	for i, want := range []float64{2.5, 3.5, 4} {
		if math.Abs(float64(dist[i])-want) > 1.01 {
			t.Errorf("share %d moved from %g to %d", i, want, dist[i])
		}
	}
}

func TestRoundSharesFloatHandlesImprecision(t *testing.T) {
	// Shares that do not sum exactly to n (float noise) are rescaled.
	shares := []float64{3.3333333333, 3.3333333333, 3.3333333334}
	dist := RoundShares(shares, 10)
	if dist.Sum() != 10 {
		t.Errorf("sum = %d, want 10", dist.Sum())
	}
}

func TestRoundSharesDegenerate(t *testing.T) {
	if d := RoundShares(nil, 5); d != nil {
		t.Errorf("RoundShares(nil) = %v", d)
	}
	d := RoundShares([]float64{0, 0, 0}, 9)
	if d.Sum() != 9 {
		t.Errorf("all-zero shares: sum = %d, want 9", d.Sum())
	}
	if d[2] != 9 {
		t.Errorf("all-zero shares should all land on the root (last): %v", d)
	}
	d = RoundShares([]float64{math.NaN(), 5, math.Inf(1)}, 5)
	if d.Sum() != 5 {
		t.Errorf("NaN/Inf shares: sum = %d, want 5", d.Sum())
	}
}

// TestHeuristicReproducesPaperQuality mirrors the paper's Section 5.2
// anecdote: on the (linear) Table-1-like platform the heuristic's
// relative error versus the exact optimum is tiny.
func TestHeuristicReproducesPaperQuality(t *testing.T) {
	procs := []Processor{
		{Name: "caseb", Comm: cost.Linear{PerItem: 1.00e-5}, Comp: cost.Linear{PerItem: 0.004629}},
		{Name: "pellinore", Comm: cost.Linear{PerItem: 1.12e-5}, Comp: cost.Linear{PerItem: 0.009365}},
		{Name: "sekhmet", Comm: cost.Linear{PerItem: 1.70e-5}, Comp: cost.Linear{PerItem: 0.004885}},
		{Name: "seven", Comm: cost.Linear{PerItem: 2.10e-5}, Comp: cost.Linear{PerItem: 0.016156}},
		{Name: "merlin", Comm: cost.Linear{PerItem: 8.15e-5}, Comp: cost.Linear{PerItem: 0.003976}},
		{Name: "dinadan", Comm: cost.Zero, Comp: cost.Linear{PerItem: 0.009288}},
	}
	n := 20000
	h, err := Heuristic(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Algorithm2(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	relErr := (h.Makespan - opt.Makespan) / opt.Makespan
	if relErr < 0 {
		t.Fatalf("heuristic beat the exact optimum: %g < %g", h.Makespan, opt.Makespan)
	}
	if relErr > 1e-4 {
		t.Errorf("heuristic relative error %g, paper reports < 6e-6 at full scale", relErr)
	}
}
