package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
)

func TestDSingleProcessor(t *testing.T) {
	// D(P1) = 1 / (1/(alpha+beta)) = alpha + beta.
	got := D([]LinearProcessor{{Alpha: 2, Beta: 3}})
	if got != 5 {
		t.Errorf("D = %g, want 5", got)
	}
}

func TestDTwoProcessors(t *testing.T) {
	// D(P1,P2) = 1 / (1/(a1+b1) + b1/((a1+b1)(a2+b2))).
	lps := []LinearProcessor{{Alpha: 1, Beta: 1}, {Alpha: 0, Beta: 1}}
	want := 1.0 / (1.0/2.0 + (1.0/2.0)*(1.0/1.0))
	if got := D(lps); math.Abs(got-want) > 1e-12 {
		t.Errorf("D = %g, want %g", got, want)
	}
}

func TestDEmptyAndInfinitelyFast(t *testing.T) {
	if got := D(nil); got != 0 {
		t.Errorf("D(nil) = %g, want 0", got)
	}
	if got := D([]LinearProcessor{{Alpha: 0, Beta: 0}}); got != 0 {
		t.Errorf("D of an infinitely fast processor = %g, want 0", got)
	}
}

func TestTheorem1SimultaneousEndings(t *testing.T) {
	// Under Theorem 1 every processor finishes at exactly t = n*D.
	lps := []LinearProcessor{
		{Name: "P1", Alpha: 0.5, Beta: 2},
		{Name: "P2", Alpha: 1, Beta: 3},
		{Name: "P3-root", Alpha: 0, Beta: 1},
	}
	n := 1000
	sol, err := SolveLinearRational(lps, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lps {
		if !sol.Kept[i] {
			t.Fatalf("processor %d unexpectedly pruned", i)
		}
	}
	wantT := float64(n) * D(lps)
	if math.Abs(sol.Makespan-wantT) > 1e-9*wantT {
		t.Errorf("makespan = %g, want %g", sol.Makespan, wantT)
	}
	// Verify simultaneous endings via Eq. (1) on the rational shares.
	commSoFar := 0.0
	for i, lp := range lps {
		commSoFar += lp.Alpha * sol.Shares[i]
		finish := commSoFar + lp.Beta*sol.Shares[i]
		if math.Abs(finish-sol.Makespan) > 1e-9*sol.Makespan {
			t.Errorf("processor %d finishes at %g, not %g", i, finish, sol.Makespan)
		}
	}
	// Shares sum to n.
	sum := 0.0
	for _, s := range sol.Shares {
		sum += s
	}
	if math.Abs(sum-float64(n)) > 1e-9*float64(n) {
		t.Errorf("shares sum to %g, want %d", sum, n)
	}
}

func TestTheorem1ShareRecurrence(t *testing.T) {
	// Share recurrence: n_i = 1/(alpha_i+beta_i) * prod_{j<i} beta_j/(alpha_j+beta_j) * t.
	lps := []LinearProcessor{
		{Alpha: 1, Beta: 2},
		{Alpha: 2, Beta: 2},
		{Alpha: 0, Beta: 3},
	}
	sol, err := SolveLinearRational(lps, 600)
	if err != nil {
		t.Fatal(err)
	}
	t0 := sol.Makespan
	prod := 1.0
	for i, lp := range lps {
		want := prod / (lp.Alpha + lp.Beta) * t0
		if math.Abs(sol.Shares[i]-want) > 1e-9*math.Max(1, want) {
			t.Errorf("share %d = %g, want %g", i, sol.Shares[i], want)
		}
		prod *= lp.Beta / (lp.Alpha + lp.Beta)
	}
}

func TestTheorem2PruningSlowLink(t *testing.T) {
	// P1's link is so slow that alpha_1 > D(P2..): Theorem 2 says P1
	// must receive nothing.
	lps := []LinearProcessor{
		{Name: "slowlink", Alpha: 100, Beta: 0.001},
		{Name: "fast", Alpha: 0.1, Beta: 1},
		{Name: "root", Alpha: 0, Beta: 1},
	}
	sol, err := SolveLinearRational(lps, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Kept[0] {
		t.Error("slow-linked processor not pruned")
	}
	if sol.Shares[0] != 0 {
		t.Errorf("pruned processor received %g items", sol.Shares[0])
	}
	if !sol.Kept[1] || !sol.Kept[2] {
		t.Error("healthy processors pruned")
	}
}

func TestTheorem2BoundaryParticipation(t *testing.T) {
	// alpha_1 exactly equal to D(P2..) is still kept (the criterion is
	// non-strict).
	root := LinearProcessor{Name: "root", Alpha: 0, Beta: 1}
	dRoot := D([]LinearProcessor{root}) // = 1
	lps := []LinearProcessor{{Name: "edge", Alpha: dRoot, Beta: 1}, root}
	sol, err := SolveLinearRational(lps, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Kept[0] {
		t.Error("boundary processor pruned; the criterion is alpha <= D")
	}
}

func TestSolveLinearRationalMatchesDP(t *testing.T) {
	// The integer DP optimum is bounded below by the rational optimum
	// and above by the rational optimum plus the rounding guarantee.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		p := 1 + rng.Intn(5)
		lps := make([]LinearProcessor, p)
		for i := range lps {
			lps[i] = LinearProcessor{
				Alpha: float64(rng.Intn(6)) * 0.25,
				Beta:  float64(1+rng.Intn(8)) * 0.25,
			}
		}
		lps[p-1].Alpha = 0
		n := 1 + rng.Intn(60)
		rat, err := SolveLinearRational(lps, n)
		if err != nil {
			t.Fatal(err)
		}
		procs := LinearProcessors(lps)
		dp, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Makespan < rat.Makespan-1e-9 {
			t.Errorf("trial %d: integer optimum %g below rational bound %g", trial, dp.Makespan, rat.Makespan)
		}
		bound := GuaranteeBound(procs)
		if dp.Makespan > rat.Makespan+bound+1e-9 {
			t.Errorf("trial %d: integer optimum %g exceeds rational %g + bound %g", trial, dp.Makespan, rat.Makespan, bound)
		}
	}
}

func TestSolveLinearIntegerWithinGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		p := 1 + rng.Intn(5)
		lps := make([]LinearProcessor, p)
		for i := range lps {
			lps[i] = LinearProcessor{
				Alpha: float64(rng.Intn(6)) * 0.25,
				Beta:  float64(1+rng.Intn(8)) * 0.25,
			}
		}
		lps[p-1].Alpha = 0
		n := 1 + rng.Intn(80)
		procs := LinearProcessors(lps)
		res, err := SolveLinear(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Distribution.Validate(p, n); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		bound := GuaranteeBound(procs)
		if res.Makespan > opt.Makespan+bound+1e-9 {
			t.Errorf("trial %d: closed-form %g exceeds optimal %g + bound %g",
				trial, res.Makespan, opt.Makespan, bound)
		}
	}
}

func TestSolveLinearRejectsNonLinear(t *testing.T) {
	procs := []Processor{{
		Name: "affine",
		Comm: cost.Affine{Fixed: 1, PerItem: 1},
		Comp: cost.Linear{PerItem: 1},
	}}
	if _, err := SolveLinear(procs, 10); err == nil {
		t.Error("affine communication cost accepted by the linear solver")
	}
}

func TestSolveLinearRationalErrors(t *testing.T) {
	if _, err := SolveLinearRational(nil, 10); err == nil {
		t.Error("no processors accepted")
	}
	if _, err := SolveLinearRational([]LinearProcessor{{Alpha: 0, Beta: 1}}, -1); err == nil {
		t.Error("negative n accepted")
	}
	//scatterlint:ignore costinvariant invalid on purpose: exercises the solver's rejection of negative alpha
	if _, err := SolveLinearRational([]LinearProcessor{{Alpha: -1, Beta: 1}}, 5); err == nil {
		t.Error("negative alpha accepted")
	}
}

// TestLinearRejectsNonFinite holds both closed-form modes and
// ExtractLinear to rejecting NaN and infinite cost constants, which
// they once took in and answered with NaN shares and makespans: plain
// mode on {alpha 0, beta +Inf} then {beta 1} at 10 items, and
// {alpha 1, beta 1} then {alpha NaN, beta 1}.
func TestLinearRejectsNonFinite(t *testing.T) {
	for _, lps := range [][]LinearProcessor{
		{{Name: "inf", Alpha: 0, Beta: math.Inf(1)}, {Name: "root", Alpha: 0, Beta: 1}},
		{{Name: "a", Alpha: 1, Beta: 1}, {Name: "nan", Alpha: math.NaN(), Beta: 1}},
		{{Name: "neg-inf", Alpha: math.Inf(-1), Beta: 1}, {Name: "root", Alpha: 0, Beta: 1}},
	} {
		if sol, err := SolveLinearRational(lps, 10); err == nil {
			t.Errorf("%v: plain mode answered %+v", lps, sol)
		}
		if sol, err := SolveLinearRootOverlap(lps, 10); err == nil {
			t.Errorf("%v: root-overlap mode answered %+v", lps, sol)
		}
		if got, err := ExtractLinear(LinearProcessors(lps)); err == nil {
			t.Errorf("%v: ExtractLinear returned %+v", lps, got)
		}
		if res, err := SolveLinear(LinearProcessors(lps), 10); err == nil {
			t.Errorf("%v: SolveLinear answered %+v", lps, res)
		}
	}
}

func TestSolveLinearInfinitelyFastProcessor(t *testing.T) {
	lps := []LinearProcessor{
		{Name: "free", Alpha: 0, Beta: 0},
		{Name: "root", Alpha: 0, Beta: 1},
	}
	sol, err := SolveLinearRational(lps, 42)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Makespan != 0 {
		t.Errorf("makespan = %g, want 0", sol.Makespan)
	}
	if sol.Shares[0] != 42 {
		t.Errorf("free processor got %g items, want all 42", sol.Shares[0])
	}
}

func TestExtractLinearRoundTrip(t *testing.T) {
	lps := []LinearProcessor{
		{Name: "a", Alpha: 0.25, Beta: 1.5},
		{Name: "b", Alpha: 0, Beta: 2},
	}
	got, err := ExtractLinear(LinearProcessors(lps))
	if err != nil {
		t.Fatal(err)
	}
	for i := range lps {
		if got[i] != lps[i] {
			t.Errorf("round trip: got %+v, want %+v", got[i], lps[i])
		}
	}
}

// TestTheorem3OrderingOptimalRational exhaustively verifies the
// ordering policy on small linear platforms: among all permutations
// keeping the root last, decreasing bandwidth gives the minimum
// rational makespan.
func TestTheorem3OrderingOptimalRational(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		p := 2 + rng.Intn(4) // up to 5 processors incl. root
		lps := make([]LinearProcessor, p)
		for i := range lps {
			lps[i] = LinearProcessor{
				Alpha: 0.25 + float64(rng.Intn(16))*0.25,
				Beta:  0.25 + float64(1+rng.Intn(8))*0.25,
			}
		}
		lps[p-1].Alpha = 0 // root
		n := 100

		// Makespan with the Theorem 3 ordering.
		procs := LinearProcessors(lps)
		order := OrderDecreasingBandwidth(procs, p-1)
		ordered := make([]LinearProcessor, p)
		for pos, idx := range order {
			ordered[pos] = lps[idx]
		}
		best, err := SolveLinearRational(ordered, n)
		if err != nil {
			t.Fatal(err)
		}

		// Every permutation of the workers (root stays last).
		workers := make([]int, p-1)
		for i := range workers {
			workers[i] = i
		}
		permute(workers, func(perm []int) {
			cand := make([]LinearProcessor, 0, p)
			for _, idx := range perm {
				cand = append(cand, lps[idx])
			}
			cand = append(cand, lps[p-1])
			sol, err := SolveLinearRational(cand, n)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Makespan < best.Makespan-1e-9*best.Makespan {
				t.Errorf("trial %d: permutation %v beats decreasing-bandwidth order: %g < %g",
					trial, perm, sol.Makespan, best.Makespan)
			}
		})
	}
}

// permute calls f with every permutation of xs (in place).
func permute(xs []int, f func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(xs) {
			f(xs)
			return
		}
		for i := k; i < len(xs); i++ {
			xs[k], xs[i] = xs[i], xs[k]
			rec(k + 1)
			xs[k], xs[i] = xs[i], xs[k]
		}
	}
	rec(0)
}

// LinearProcessors converts a slice of linear descriptions.
func LinearProcessors(lps []LinearProcessor) []Processor {
	out := make([]Processor, len(lps))
	for i, lp := range lps {
		out[i] = lp.Processor()
	}
	return out
}
