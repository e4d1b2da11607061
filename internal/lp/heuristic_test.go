package lp_test

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/lp"
	"repro/internal/platform"
)

// eq3 restates Eq. (3) over the variables n_0..n_{p-1}, T exactly as
// core.HeuristicRational builds it, so that the reference tableau can
// solve the same problem.
func eq3(aps []core.AffineProcessor, n int) *lp.Problem {
	p := len(aps)
	prob := &lp.Problem{NumVars: p + 1, Objective: make([]*big.Rat, p+1)}
	prob.Objective[p] = big.NewRat(1, 1)
	eq := lp.Constraint{Rel: lp.EQ, RHS: big.NewRat(int64(n), 1), Coeffs: make([]*big.Rat, p+1)}
	for i := 0; i < p; i++ {
		eq.Coeffs[i] = big.NewRat(1, 1)
	}
	prob.Constraints = append(prob.Constraints, eq)
	fixedComm := 0.0
	for i := 0; i < p; i++ {
		fixedComm += aps[i].CommFixed
		c := lp.Constraint{Rel: lp.LE, Coeffs: make([]*big.Rat, p+1)}
		for j := 0; j <= i; j++ {
			c.Coeffs[j] = new(big.Rat).SetFloat64(aps[j].CommPerItem)
		}
		c.Coeffs[i] = new(big.Rat).Add(c.Coeffs[i], new(big.Rat).SetFloat64(aps[i].CompPerItem))
		c.Coeffs[p] = big.NewRat(-1, 1)
		c.RHS = new(big.Rat).Neg(new(big.Rat).SetFloat64(fixedComm + aps[i].CompFixed))
		prob.Constraints = append(prob.Constraints, c)
	}
	return prob
}

// checkHeuristic holds core.HeuristicRational to the reference
// tableau's vertex (T* and every share, exactly) and core.Heuristic to
// the paper's rounding of that vertex.
func checkHeuristic(t *testing.T, procs []core.Processor, n int) {
	t.Helper()
	aps, err := core.ExtractAffine(procs)
	if err != nil {
		t.Fatal(err)
	}
	p := len(aps)
	want, err := lp.OracleSolve(eq3(aps, n))
	if err != nil || want.Status != lp.Optimal {
		t.Fatalf("oracle: %v, %v", want, err)
	}
	got, err := core.HeuristicRational(aps, n)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan.Cmp(want.X[p]) != 0 {
		t.Fatalf("p=%d n=%d: T* = %s, oracle %s", p, n, got.Makespan.RatString(), want.X[p].RatString())
	}
	for i, s := range got.Shares {
		if s.Cmp(want.X[i]) != 0 {
			t.Fatalf("p=%d n=%d: share %d = %s, oracle %s", p, n, i, s.RatString(), want.X[i].RatString())
		}
	}
	dist, err := core.RoundRatShares(want.X[:p], n)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.Heuristic(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dist {
		if h.Distribution[i] != dist[i] {
			t.Fatalf("p=%d n=%d: Heuristic %v, oracle rounds to %v", p, n, h.Distribution, dist)
		}
	}
}

func affineProcs(aps []core.AffineProcessor) []core.Processor {
	procs := make([]core.Processor, len(aps))
	for i, ap := range aps {
		procs[i] = ap.Processor()
	}
	return procs
}

// FuzzHeuristicLP draws affine platforms and holds the heuristic to the
// reference tableau. Dyadic draws (p = 2-9, n < 40, costs in quarters,
// many of them zero) make degenerate optima common, including
// processors with a zero share whose fixed terms pin T; the others are
// Table-1-scaled affine platforms with p = 2-16.
func FuzzHeuristicLP(f *testing.F) {
	f.Add(int64(1), uint8(3), uint32(10), true)
	f.Add(int64(2), uint8(7), uint32(39), true)
	f.Add(int64(3), uint8(14), uint32(817101), false)
	f.Add(int64(4), uint8(0), uint32(0), false)
	f.Fuzz(func(t *testing.T, seed int64, pRaw uint8, nRaw uint32, dyadic bool) {
		rng := rand.New(rand.NewSource(seed))
		aps := make([]core.AffineProcessor, 0, 16)
		n := int(nRaw % 1000000)
		if dyadic {
			n = int(nRaw % 40)
			quarter := func() float64 { return float64(rng.Intn(9)) / 4 }
			for i := 2 + int(pRaw%8); i > 0; i-- {
				aps = append(aps, core.AffineProcessor{
					CommFixed: quarter() * float64(rng.Intn(2)), CommPerItem: quarter(),
					CompFixed: quarter() * float64(rng.Intn(2)), CompPerItem: 0.25 + quarter(),
				})
			}
		} else {
			for i := 2 + int(pRaw%15); i > 0; i-- {
				aps = append(aps, core.AffineProcessor{
					CommFixed: 1e-3 * rng.Float64(), CommPerItem: 1e-5 * (1 + 8*rng.Float64()),
					CompFixed: 1e-2 * rng.Float64(), CompPerItem: 4e-3 * (1 + 3*rng.Float64()),
				})
			}
		}
		aps[len(aps)-1].CommFixed, aps[len(aps)-1].CommPerItem = 0, 0
		checkHeuristic(t, affineProcs(aps), n)
	})
}

// TestHeuristicLPTable1 holds the heuristic to the reference tableau on
// the paper's Table 1 platform (descending bandwidth) and on an affine
// one jittered from it, at 1,000, 100,000 and 817,101 items.
func TestHeuristicLPTable1(t *testing.T) {
	procs, err := platform.Table1().ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1000, 100000, platform.Table1Rays} {
		checkHeuristic(t, procs, n)
		checkHeuristic(t, jittered(procs, 1), n)
	}
}

// jittered returns an affine copy of procs: every slope moved by up to
// 1% and small fixed terms added, the root keeping a free link.
func jittered(procs []core.Processor, seed int64) []core.Processor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Processor, len(procs))
	for i, pr := range procs {
		j := func(x float64) float64 { return x * (1 + 0.01*(2*rng.Float64()-1)) }
		comm := cost.Function(cost.Affine{Fixed: 1e-3 * rng.Float64(), PerItem: j(pr.Comm.Eval(1))})
		if i == len(procs)-1 {
			comm = cost.Zero
		}
		out[i] = core.Processor{
			Name: pr.Name,
			Comm: comm,
			Comp: cost.Affine{Fixed: 1e-2 * rng.Float64(), PerItem: j(pr.Comp.Eval(1))},
		}
	}
	return out
}

// BenchmarkHeuristicRational times the exact Eq. (3) solve at p = 16
// and 817,101 items against the reference tableau's, and the whole
// §3.3 heuristic (the solve plus its rounding, core.Heuristic).
func BenchmarkHeuristicRational(b *testing.B) {
	procs, err := platform.Table1().ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		procs []core.Processor
	}{{"table1", procs}, {"jittered", jittered(procs, 1)}} {
		aps, err := core.ExtractAffine(c.procs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/solve", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.HeuristicRational(aps, platform.Table1Rays); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/heuristic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Heuristic(c.procs, platform.Table1Rays); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/oracle", func(b *testing.B) {
			prob := eq3(aps, platform.Table1Rays)
			for i := 0; i < b.N; i++ {
				if _, err := lp.OracleSolve(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
