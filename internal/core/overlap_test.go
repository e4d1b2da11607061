package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestOverlapNeverWorseThanPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		p := 1 + rng.Intn(6)
		lps := make([]LinearProcessor, p)
		for i := range lps {
			lps[i] = LinearProcessor{
				Alpha: rng.Float64() * 2,
				Beta:  0.1 + rng.Float64()*3,
			}
		}
		lps[p-1].Alpha = 0
		n := 1 + rng.Intn(1000)
		plain, err := SolveLinearRational(lps, n)
		if err != nil {
			t.Fatal(err)
		}
		over, err := SolveLinearRootOverlap(lps, n)
		if err != nil {
			t.Fatal(err)
		}
		if over.Makespan > plain.Makespan+1e-9*plain.Makespan {
			t.Errorf("trial %d: overlap %g worse than plain %g", trial, over.Makespan, plain.Makespan)
		}
	}
}

func TestOverlapSimultaneousEndings(t *testing.T) {
	lps := []LinearProcessor{
		{Name: "w1", Alpha: 0.5, Beta: 2},
		{Name: "w2", Alpha: 1, Beta: 3},
		{Name: "root", Alpha: 0, Beta: 1},
	}
	n := 1200
	sol, err := SolveLinearRootOverlap(lps, n)
	if err != nil {
		t.Fatal(err)
	}
	// Workers obey Eq. (1); the root finishes at beta*share with no
	// communication prefix.
	commSoFar := 0.0
	for i := 0; i < 2; i++ {
		commSoFar += lps[i].Alpha * sol.Shares[i]
		finish := commSoFar + lps[i].Beta*sol.Shares[i]
		if math.Abs(finish-sol.Makespan) > 1e-9*sol.Makespan {
			t.Errorf("worker %d finishes at %g, want %g", i, finish, sol.Makespan)
		}
	}
	rootFinish := lps[2].Beta * sol.Shares[2]
	if math.Abs(rootFinish-sol.Makespan) > 1e-9*sol.Makespan {
		t.Errorf("root finishes at %g, want %g", rootFinish, sol.Makespan)
	}
	// Shares sum to n.
	sum := 0.0
	for _, s := range sol.Shares {
		sum += s
	}
	if math.Abs(sum-float64(n)) > 1e-6 {
		t.Errorf("shares sum to %g, want %d", sum, n)
	}
}

// overlapGain is the relative makespan improvement the root-overlap
// relaxation buys over the paper's no-overlap model on the same
// processors, computed as experiment/overlap.go tabulates it.
func overlapGain(lps []LinearProcessor, n int) (float64, error) {
	plain, err := SolveLinearRational(lps, n)
	if err != nil {
		return 0, err
	}
	over, err := SolveLinearRootOverlap(lps, n)
	if err != nil {
		return 0, err
	}
	if plain.Makespan == 0 {
		return 0, nil
	}
	return (plain.Makespan - over.Makespan) / plain.Makespan, nil
}

func TestOverlapGainIsTheRootCommWindow(t *testing.T) {
	// With a single worker and the root, the no-overlap root waits
	// alpha_1*n_1 before computing; overlapping removes exactly that
	// serialization from the root's critical path, so the gain is
	// strictly positive whenever the worker gets a share.
	lps := []LinearProcessor{
		{Name: "w", Alpha: 1, Beta: 1},
		{Name: "root", Alpha: 0, Beta: 1},
	}
	gain, err := overlapGain(lps, 100)
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 0 || gain >= 1 {
		t.Errorf("overlap gain = %g, want in (0, 1)", gain)
	}
}

func TestOverlapGainZeroWhenCommFree(t *testing.T) {
	// Free links: the scatter costs nothing, so overlapping the root
	// cannot help.
	lps := []LinearProcessor{
		{Name: "w", Alpha: 0, Beta: 1},
		{Name: "root", Alpha: 0, Beta: 1},
	}
	gain, err := overlapGain(lps, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gain) > 1e-12 {
		t.Errorf("overlap gain = %g with free links, want 0", gain)
	}
}

func TestOverlapInstantRoot(t *testing.T) {
	lps := []LinearProcessor{
		{Name: "w", Alpha: 1, Beta: 1},
		{Name: "root", Alpha: 0, Beta: 0},
	}
	sol, err := SolveLinearRootOverlap(lps, 50)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Shares[1] != 50 || sol.Makespan != 0 {
		t.Errorf("instant root solution = %+v", sol)
	}
}

func TestOverlapPrunesSlowLinks(t *testing.T) {
	lps := []LinearProcessor{
		{Name: "useless", Alpha: 1000, Beta: 0.001},
		{Name: "root", Alpha: 0, Beta: 1},
	}
	sol, err := SolveLinearRootOverlap(lps, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Kept[0] {
		t.Error("slow-linked worker not pruned in the overlap model")
	}
	if sol.Shares[1] != 100 {
		t.Errorf("root share = %g, want 100", sol.Shares[1])
	}
}

func TestOverlapValidation(t *testing.T) {
	if _, err := SolveLinearRootOverlap(nil, 5); err == nil {
		t.Error("empty processors accepted")
	}
	if _, err := SolveLinearRootOverlap([]LinearProcessor{{Beta: 1}}, -1); err == nil {
		t.Error("negative n accepted")
	}
	//scatterlint:ignore costinvariant invalid on purpose: exercises the solver's rejection of negative alpha
	if _, err := SolveLinearRootOverlap([]LinearProcessor{{Alpha: -1, Beta: 1}}, 5); err == nil {
		t.Error("negative alpha accepted")
	}
}

func TestOverlapGainTable1Scale(t *testing.T) {
	// On the Table 1 platform, communication is tiny compared to
	// computation (alpha ~1e-5 vs beta ~1e-2), so the overlap can
	// gain only a sliver — quantifying why the paper could afford to
	// keep the original program's structure.
	lps := []LinearProcessor{
		{Name: "caseb", Alpha: 1.00e-5, Beta: 0.004629},
		{Name: "pellinore", Alpha: 1.12e-5, Beta: 0.009365},
		{Name: "merlin", Alpha: 8.15e-5, Beta: 0.003976},
		{Name: "dinadan", Alpha: 0, Beta: 0.009288},
	}
	gain, err := overlapGain(lps, 817101)
	if err != nil {
		t.Fatal(err)
	}
	if gain < 0 || gain > 0.02 {
		t.Errorf("overlap gain = %g, expected under 2%% on a compute-bound grid", gain)
	}
}
