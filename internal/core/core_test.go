package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
)

// figure1Procs builds the 4-processor configuration sketched in the
// paper's Figure 1: three workers plus the root P4 (which pays no
// communication cost), with hand-checkable integer costs.
func figure1Procs() []Processor {
	return []Processor{
		{Name: "P1", Comm: cost.Linear{PerItem: 1}, Comp: cost.Linear{PerItem: 2}},
		{Name: "P2", Comm: cost.Linear{PerItem: 2}, Comp: cost.Linear{PerItem: 1}},
		{Name: "P3", Comm: cost.Linear{PerItem: 3}, Comp: cost.Linear{PerItem: 3}},
		{Name: "P4-root", Comm: cost.Zero, Comp: cost.Linear{PerItem: 2}},
	}
}

func TestFinishTimesHandComputed(t *testing.T) {
	procs := figure1Procs()
	dist := Distribution{2, 2, 2, 2}
	// P1: comm 2, comp 4 -> 6
	// P2: starts after P1's comm (2), comm 4, comp 2 -> 8
	// P3: starts at 6, comm 6, comp 6 -> 18
	// P4: root, no comm, computes after all sends (12) -> 16
	want := []float64{6, 8, 18, 16}
	got := FinishTimes(procs, dist)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finish[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if m := Makespan(procs, dist); m != 18 {
		t.Errorf("makespan = %g, want 18", m)
	}
}

func TestFinishTimesStairEffect(t *testing.T) {
	// With equal shares, each later processor starts receiving only
	// after the previous ones were served: receive-completion times
	// must be non-decreasing (the "stair effect" of Figure 1).
	procs := figure1Procs()
	dist := Uniform(4, 40)
	commEnd := 0.0
	for i, ni := range dist {
		commEnd += procs[i].Comm.Eval(ni)
		startComp := commEnd
		finish := FinishTimes(procs, dist)[i]
		if math.Abs(finish-(startComp+procs[i].Comp.Eval(ni))) > 1e-9 {
			t.Errorf("processor %d: finish %g inconsistent with serialized start %g", i, finish, startComp)
		}
	}
}

func TestUniform(t *testing.T) {
	cases := []struct {
		p, n int
		want Distribution
	}{
		{4, 8, Distribution{2, 2, 2, 2}},
		{4, 10, Distribution{3, 3, 2, 2}},
		{3, 2, Distribution{1, 1, 0}},
		{1, 5, Distribution{5}},
		{5, 0, Distribution{0, 0, 0, 0, 0}},
	}
	for _, c := range cases {
		got := Uniform(c.p, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("Uniform(%d,%d) = %v, want %v", c.p, c.n, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Uniform(%d,%d) = %v, want %v", c.p, c.n, got, c.want)
				break
			}
		}
		if got.Sum() != c.n {
			t.Errorf("Uniform(%d,%d) sums to %d", c.p, c.n, got.Sum())
		}
	}
	if Uniform(0, 5) != nil {
		t.Error("Uniform(0, n) should be nil")
	}
}

func TestDistributionValidate(t *testing.T) {
	d := Distribution{1, 2, 3}
	if err := d.Validate(3, 6); err != nil {
		t.Errorf("valid distribution rejected: %v", err)
	}
	if err := d.Validate(2, 6); err == nil {
		t.Error("wrong processor count accepted")
	}
	if err := d.Validate(3, 7); err == nil {
		t.Error("wrong sum accepted")
	}
	if err := (Distribution{-1, 7}).Validate(2, 6); err == nil {
		t.Error("negative share accepted")
	}
}

func TestValidateProcessors(t *testing.T) {
	if err := ValidateProcessors(nil); err == nil {
		t.Error("empty processor list accepted")
	}
	if err := ValidateProcessors([]Processor{{Name: "x", Comm: cost.Zero}}); err == nil {
		t.Error("processor without computation cost accepted")
	}
	if err := ValidateProcessors(figure1Procs()); err != nil {
		t.Errorf("valid processors rejected: %v", err)
	}
}

func TestMarginalCommCost(t *testing.T) {
	p := Processor{Comm: cost.Linear{PerItem: 0.5}, Comp: cost.Zero}
	if got := MarginalCommCost(p); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MarginalCommCost(linear 0.5) = %g", got)
	}
	// Affine latency washes out at the probe size.
	pa := Processor{Comm: cost.Affine{Fixed: 100, PerItem: 0.5}, Comp: cost.Zero}
	if got := MarginalCommCost(pa); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("MarginalCommCost(affine) = %g, want 0.5", got)
	}
}

func TestOrderDecreasingBandwidth(t *testing.T) {
	procs := figure1Procs() // alphas 1, 2, 3, root
	order := OrderDecreasingBandwidth(procs, 3)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Root in the middle must still land last.
	order = OrderDecreasingBandwidth(procs, 1)
	if order[len(order)-1] != 1 {
		t.Errorf("root not last: %v", order)
	}
	// Remaining processors sorted by alpha: 0 (1), 2 (3), 3 (0! the
	// old root has a zero-cost link so it sorts first).
	if order[0] != 3 || order[1] != 0 || order[2] != 2 {
		t.Errorf("order = %v, want [3 0 2 1]", order)
	}
}

func TestOrderIncreasingBandwidth(t *testing.T) {
	procs := figure1Procs()
	order := OrderIncreasingBandwidth(procs, 3)
	want := []int{2, 1, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestOrderIsStableForEqualBandwidth(t *testing.T) {
	procs := []Processor{
		{Name: "a", Comm: cost.Linear{PerItem: 1}, Comp: cost.Zero},
		{Name: "b", Comm: cost.Linear{PerItem: 1}, Comp: cost.Zero},
		{Name: "c", Comm: cost.Linear{PerItem: 1}, Comp: cost.Zero},
		{Name: "root", Comm: cost.Zero, Comp: cost.Zero},
	}
	order := OrderDecreasingBandwidth(procs, 3)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("equal-bandwidth order not stable: %v", order)
		}
	}
}

func TestPermuteAndInverse(t *testing.T) {
	procs := figure1Procs()
	order := []int{2, 0, 1, 3}
	perm := Permute(procs, order)
	if perm[0].Name != "P3" || perm[1].Name != "P1" {
		t.Fatalf("Permute wrong: %v, %v", perm[0].Name, perm[1].Name)
	}
	dist := Distribution{10, 20, 30, 40}
	back := InversePermute(dist, order)
	// Position 0 of the permuted list is original index 2.
	if back[2] != 10 || back[0] != 20 || back[1] != 30 || back[3] != 40 {
		t.Errorf("InversePermute = %v", back)
	}
}

func TestInversePermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		p := 1 + rng.Intn(8)
		order := rng.Perm(p)
		dist := make(Distribution, p)
		for i := range dist {
			dist[i] = rng.Intn(100)
		}
		procs := make([]Processor, p)
		for i := range procs {
			procs[i] = Processor{
				Comm: cost.Linear{PerItem: float64(1 + rng.Intn(5))},
				Comp: cost.Linear{PerItem: float64(1 + rng.Intn(5))},
			}
		}
		// A distribution computed on the permuted processors must give
		// the same finish times when mapped back and recomputed on a
		// re-permuted list.
		perm := Permute(procs, order)
		m1 := Makespan(perm, dist)
		back := InversePermute(dist, order)
		m2 := Makespan(perm, dist)
		_ = back
		if m1 != m2 {
			t.Fatalf("permutation broke makespan: %g vs %g", m1, m2)
		}
		if back.Sum() != dist.Sum() {
			t.Fatalf("InversePermute lost items")
		}
	}
}

func TestChooseRoot(t *testing.T) {
	mk := func(rootAlpha float64, transfer float64, name string) RootChoice {
		return RootChoice{
			Name:     name,
			Transfer: transfer,
			Procs: []Processor{
				{Name: "w", Comm: cost.Linear{PerItem: rootAlpha}, Comp: cost.Linear{PerItem: 1}},
				{Name: name, Comm: cost.Zero, Comp: cost.Linear{PerItem: 1}},
			},
		}
	}
	candidates := []RootChoice{
		mk(1, 0, "local"),    // data already here, slower link
		mk(0.1, 1000, "far"), // better link but huge transfer cost
	}
	best, evals, err := ChooseRoot(100, candidates, Algorithm1)
	if err != nil {
		t.Fatal(err)
	}
	if best != 0 {
		t.Errorf("best root = %d (%s), want 0 (local)", best, evals[best].Choice.Name)
	}
	if len(evals) != 2 {
		t.Fatalf("got %d evaluations", len(evals))
	}
	if evals[1].Total < evals[0].Total {
		t.Error("evaluation totals inconsistent with choice")
	}
	// With a free transfer, the better link must win.
	candidates[1].Transfer = 0
	best, _, err = ChooseRoot(100, candidates, Algorithm1)
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 {
		t.Errorf("best root = %d, want 1 (free transfer, faster link)", best)
	}
}

func TestChooseRootErrors(t *testing.T) {
	if _, _, err := ChooseRoot(10, nil, Algorithm1); err == nil {
		t.Error("no candidates accepted")
	}
	bad := []RootChoice{{Name: "bad", Procs: nil}}
	if _, _, err := ChooseRoot(10, bad, Algorithm1); err == nil {
		t.Error("candidate with no processors accepted")
	}
}

func TestBruteForceTiny(t *testing.T) {
	procs := []Processor{
		{Name: "fast", Comm: cost.Linear{PerItem: 1}, Comp: cost.Linear{PerItem: 1}},
		{Name: "root", Comm: cost.Zero, Comp: cost.Linear{PerItem: 1}},
	}
	res, err := BruteForce(procs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Distribution.Validate(2, 4); err != nil {
		t.Fatal(err)
	}
	// Optimal by hand: give the root more because its items are free
	// to ship. e items to worker: finish worker = e + e = 2e; root =
	// e + (4-e) = 4. So any e <= 2 gives makespan 4. The DP prefers
	// the smallest share achieving the optimum: e = 0.
	if res.Makespan != 4 {
		t.Errorf("brute force makespan = %g, want 4", res.Makespan)
	}
}

func TestBruteForceErrors(t *testing.T) {
	if _, err := BruteForce(nil, 3); err == nil {
		t.Error("no processors accepted")
	}
	procs := figure1Procs()
	if _, err := BruteForce(procs, -1); err == nil {
		t.Error("negative n accepted")
	}
}

// InversePermute maps a distribution computed for Permute(procs, order)
// back to the original processor indexing.
func InversePermute(dist Distribution, order []int) Distribution {
	out := make(Distribution, len(dist))
	for pos, idx := range order {
		out[idx] = dist[pos]
	}
	return out
}
