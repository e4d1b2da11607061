package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/lp"
)

// table1Exact817101 is Algorithm 2's answer on the Table 1 platform
// at the paper's 817,101 items (a ~12 s solve on a 2-CPU host), pinned
// so the certified solve can be held to it without re-running it.
var table1Exact817101 = Result{
	Distribution: Distribution{87082, 42992, 82134, 24802, 24770, 41204, 41054, 40905, 40756, 40608, 40460, 40313, 40167, 95797, 93872, 40185},
	Makespan:     0x1.93f9a8a5a6176p+08,
}

// requireCertified solves n items over procs with SolveCertified and
// holds a certified answer to Algorithm 2 bit for bit.
func requireCertified(t *testing.T, label string, procs []Processor, n int) {
	t.Helper()
	got, cert, err := SolveCertified(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified {
		t.Fatalf("%s: not certified: %s", label, cert.Reason)
	}
	want, err := Algorithm2(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, label, got, want)
}

// TestSolveCertifiedTable1 certifies the paper's platform at the
// repository benchmark's job sizes and at its full 817,101 items.
func TestSolveCertifiedTable1(t *testing.T) {
	procs := table1Procs()
	for _, n := range []int{40_000, 50_381} {
		requireCertified(t, fmt.Sprintf("table1 n=%d", n), procs, n)
	}
	got, cert, err := SolveCertified(procs, 817101)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified || !(cert.Margin > 0) {
		t.Fatalf("817101 items: certificate %+v", cert)
	}
	requireSameResult(t, "table1 n=817101", got, table1Exact817101)
}

// TestSolveCertifiedRandomLinear: linear platforms with Table 1's
// range of link and CPU speeds, served in decreasing bandwidth, all
// certify and match Algorithm 2.
func TestSolveCertifiedRandomLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 8; trial++ {
		p := 4 + rng.Intn(13)
		n := 5000 + rng.Intn(15000)
		procs := make([]Processor, p)
		for i := range procs {
			procs[i] = Processor{
				Name: fmt.Sprintf("L%d", i),
				Comm: cost.Linear{PerItem: 1e-5 + rng.Float64()*9e-5},
				Comp: cost.Linear{PerItem: 0.003 + rng.Float64()*0.015},
			}
		}
		procs[p-1].Comm = cost.Zero
		procs = Permute(procs, OrderDecreasingBandwidth(procs, p-1))
		requireCertified(t, fmt.Sprintf("trial %d p=%d n=%d", trial, p, n), procs, n)
	}
}

// certifyFuzzProcs draws one of FuzzCertified's platform families:
//
//	0: random affine platforms with Fixed > 0, over four magnitudes of
//	   fixed cost, so both outcomes occur;
//	1: tie-heavy dyadic platforms with zero comm slopes, where every
//	   cost sum is exact and equal-cost shares are common;
//	2: runs of identical processors, like Table 1's eight leda, with
//	   dyadic or arbitrary slopes.
func certifyFuzzProcs(kind, pRaw uint8, seed int64) []Processor {
	rng := rand.New(rand.NewSource(seed))
	p := 1 + int(pRaw%12)
	var procs []Processor
	switch kind % 3 {
	case 0:
		scale := []float64{1e-6, 1e-4, 1e-2, 0.25}[rng.Intn(4)]
		for i := 0; i < p; i++ {
			procs = append(procs, Processor{
				Name: fmt.Sprintf("A%d", i),
				Comm: cost.Affine{Fixed: scale * (0.1 + rng.Float64()), PerItem: rng.Float64() * 1e-4},
				Comp: cost.Affine{Fixed: scale * (0.1 + rng.Float64()), PerItem: 1e-3 + rng.Float64()*1e-2},
			})
		}
	case 1:
		for i := 0; i < p; i++ {
			procs = append(procs, Processor{
				Name: fmt.Sprintf("D%d", i),
				Comm: cost.Affine{Fixed: float64(rng.Intn(4)) / 16},
				Comp: cost.Linear{PerItem: float64(1+rng.Intn(8)) / 128},
			})
		}
	default:
		dyadic := rng.Intn(2) == 0
		for kinds := 1 + rng.Intn(3); kinds > 0 && len(procs) < 15; kinds-- {
			alpha, beta := 1e-5+rng.Float64()*9e-5, 0.003+rng.Float64()*0.015
			if dyadic {
				alpha, beta = float64(1+rng.Intn(8))/(1<<16), float64(1+rng.Intn(8))/128
			}
			for run := 1 + rng.Intn(8); run > 0 && len(procs) < 15; run-- {
				procs = append(procs, Processor{
					Name: fmt.Sprintf("R%d", len(procs)),
					Comm: cost.Linear{PerItem: alpha},
					Comp: cost.Linear{PerItem: beta},
				})
			}
		}
		procs = append(procs, Processor{Name: "root", Comp: cost.Linear{PerItem: 0.003 + rng.Float64()*0.015}})
		p = len(procs)
	}
	procs[p-1].Comm = cost.Zero
	return Permute(procs, OrderDecreasingBandwidth(procs, p-1))
}

// checkCertified runs one coarse-refine engine solve and holds it to
// Algorithm 2 bit for bit. A certified answer must come from the
// certificate (SourceCoarse, the makespan as lower bound, zero band);
// an uncertified one from the exact cold solve after one counted
// certificate refusal. It reports whether the answer was certified.
func checkCertified(t *testing.T, label string, procs []Processor, n int) bool {
	t.Helper()
	eng := NewEngineConfig(EngineConfig{Policy: PolicyCoarseRefine, CoarseMinItems: 1})
	got, info, err := eng.SolveDetailed(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	_, cert, err := SolveCertified(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Algorithm2(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, label, got, want)
	certified := info.Source == SourceCoarse
	if cert.Certified != certified {
		t.Fatalf("%s: SolveCertified says %v, the engine answered from %v", label, cert.Certified, info.Source)
	}
	stats := eng.Stats()
	stats.Cells = 0 // the route is pinned here, the work by TestEngineCells
	if certified {
		if info.Bound != 0 || !sameBits(info.LowerBound, got.Makespan) || !(cert.Margin > 0) {
			t.Fatalf("%s: certified info %+v, certificate %+v", label, info, cert)
		}
		if stats != (EngineStats{CoarseSolves: 1}) {
			t.Fatalf("%s: stats %+v after a certified solve", label, stats)
		}
		return true
	}
	if info.Source != SourceCold || info.Bound != 0 || info.LowerBound != 0 {
		t.Fatalf("%s: fallback info %+v, want an exact cold solve", label, info)
	}
	if stats != (EngineStats{ColdSolves: 1, CertifyFallbacks: 1}) {
		t.Fatalf("%s: stats %+v after a fallback", label, stats)
	}
	return false
}

// FuzzCertified: every coarse-path answer is Algorithm 2's bit for
// bit, certified or solved after a refusal, on the three platform
// families of certifyFuzzProcs.
func FuzzCertified(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint16(5000), int64(1))
	f.Add(uint8(1), uint8(4), uint16(3000), int64(2))
	f.Add(uint8(2), uint8(0), uint16(9000), int64(3))
	f.Fuzz(func(t *testing.T, kind, pRaw uint8, nRaw uint16, seed int64) {
		procs := certifyFuzzProcs(kind, pRaw, seed)
		n := 1 + int(nRaw)%12000
		checkCertified(t, fmt.Sprintf("kind=%d p=%d n=%d seed=%d", kind%3, len(procs), n, seed), procs, n)
	})
}

// TestCertifiedFamilies sweeps FuzzCertified's families and requires
// both outcomes where they occur: certified answers in every family,
// and fallbacks on the affine and dyadic families, whose fixed terms
// the certificate's bound drops.
func TestCertifiedFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for kind := uint8(0); kind < 3; kind++ {
		certified, fallbacks := 0, 0
		for trial := 0; trial < 20; trial++ {
			seed := rng.Int63()
			procs := certifyFuzzProcs(kind, uint8(rng.Intn(256)), seed)
			n := 1 + rng.Intn(6000)
			if checkCertified(t, fmt.Sprintf("kind=%d trial=%d n=%d", kind, trial, n), procs, n) {
				certified++
			} else {
				fallbacks++
			}
		}
		if certified == 0 || (kind < 2 && fallbacks == 0) {
			t.Errorf("family %d: %d certified, %d fallbacks; the sweep misses an outcome", kind, certified, fallbacks)
		}
	}
}

// TestCertifyRefusesOffOptimumWindow moves the seed 300 items away
// from Algorithm 2's answer, so no window around it holds the optimal
// path: the certificate must refuse it at an exit bound.
func TestCertifyRefusesOffOptimumWindow(t *testing.T) {
	procs := table1Procs()
	const n = 20000
	want, err := Algorithm2(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	co, ok := affineCoefs(procs)
	if !ok {
		t.Fatal("Table 1 costs are linear")
	}
	seed := append(Distribution(nil), want.Distribution...)
	seed[0] -= 300
	seed[1] += 300
	res, cert := certifyAround(procs, co, n, seed)
	if cert.Certified || cert.Margin > 0 {
		t.Fatalf("off-optimum window certified: %+v (answer %v, optimum %v)", cert, res.Distribution, want.Distribution)
	}
	// The same check around the optimum itself passes.
	if _, cert := certifyAround(procs, co, n, want.Distribution); !cert.Certified {
		t.Fatalf("window around the optimum refused: %s", cert.Reason)
	}
}

// TestCertifyRefusesFlatWindow: a processor whose comm+comp stops
// rising (a fixed cost with zero slopes) can tie its crossover share
// with larger ones, where the refine's tie rule and Algorithm 2's part
// ways. The certificate refuses it before any exit bound, and the
// engine answers with the exact DP.
func TestCertifyRefusesFlatWindow(t *testing.T) {
	procs := table1Procs()
	procs[3].Comm, procs[3].Comp = cost.Zero, cost.Affine{Fixed: 1}
	const n = 20000
	if _, cert, _ := SolveCertified(procs, n); cert.Certified || cert.Reason != errNotStrict {
		t.Fatalf("flat window: certificate %+v", cert)
	}
	if checkCertified(t, "flat window", procs, n) {
		t.Fatal("flat window certified through the engine")
	}
}

// TestCertifyRefusesCorruptDuals: exitBound claims nothing for
// multipliers outside its domain, and multipliers inside it that are
// not near-optimal give bounds too weak to certify.
func TestCertifyRefusesCorruptDuals(t *testing.T) {
	procs := table1Procs()
	const n, row = 50381, 3
	co, _ := affineCoefs(procs)
	seed, ok := eq3Seed(co, n)
	if !ok {
		t.Fatal("no seed")
	}
	b, err := refineBand(procs, n, seed, certifyWindow)
	if err != nil {
		t.Fatal(err)
	}
	p := len(procs)
	prob := eq3Problem(co, n, false)
	prob.Constraints = append(prob.Constraints, lp.FloatConstraint{Coeffs: make([]float64, p+1)})
	for _, above := range []bool{false, true} {
		rhs := b.lo[row] - 1
		if above {
			rhs = b.hi[row] + 1
		}
		lam, nu, ok := exitDuals(prob, p, row, above, rhs)
		if !ok {
			t.Fatal("exit LP failed")
		}
		bound := func(lam []float64, nu float64) float64 { return exitBound(co, n, row, above, rhs, lam, nu) }
		if got := bound(lam, nu); !(got > b.value) {
			t.Fatalf("above=%v: genuine multipliers bound %v, value %v", above, got, b.value)
		}
		scaled := func(f float64) []float64 {
			out := make([]float64, p)
			for j := range lam {
				out[j] = lam[j] * f
			}
			return out
		}
		rotated := append(append([]float64(nil), lam[1:]...), lam[0])
		nan := append([]float64(nil), lam...)
		nan[p/2] = math.NaN()
		for _, c := range []struct {
			name string
			lam  []float64
			nu   float64
		}{
			{"lam doubled", scaled(2), nu},
			{"lam with a NaN", nan, nu},
			{"nu negated", lam, -nu - 1},
			{"nu infinite", lam, math.Inf(1)},
			{"lam rotated", rotated, nu},
			{"nu dropped", lam, 0},
			{"nu inflated", lam, nu*100 + 1},
			{"lam halved", scaled(0.5), nu},
		} {
			if got := bound(c.lam, c.nu); got > b.value {
				t.Errorf("above=%v, %s: bound %v clears the value %v", above, c.name, got, b.value)
			}
		}
	}
}

// TestExitBoundIsALowerBound checks exitBound's claim directly: for
// random multipliers in its domain, the bound never exceeds the
// relaxed makespan max_k(Σ_{j<=k} alpha_j x_j + beta_k x_k) of random
// real points x in the exit region, nor the exit LP's optimum.
func TestExitBoundIsALowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		p := 2 + rng.Intn(8)
		n := 1 + rng.Intn(100000)
		co := make([]affineCoef, p)
		for j := range co {
			co[j] = affineCoef{alpha: rng.Float64() * 1e-4, beta: 1e-3 + rng.Float64()*1e-2}
		}
		co[p-1].alpha = 0
		i := 1 + rng.Intn(p-1)
		above := rng.Intn(2) == 0
		rhs := rng.Intn(n + 1)
		lam := make([]float64, p)
		sum := 0.0
		for j := range lam {
			if rng.Intn(3) > 0 {
				lam[j] = rng.Float64()
				sum += lam[j]
			}
		}
		for j := range lam {
			if sum > 0 {
				lam[j] = lam[j] / sum * (1 - 1e-9)
			}
		}
		nu := rng.Float64() * 0.05
		bound := exitBound(co, n, i, above, rhs, lam, nu)
		if math.IsInf(bound, -1) {
			t.Fatalf("trial %d: in-domain multipliers refused", trial)
		}
		for k := 0; k < 20; k++ {
			x := exitPoint(rng, p, n, i, above, rhs)
			if tx := relaxedMakespan(co, x); bound > tx*(1+1e-12) {
				t.Fatalf("trial %d: bound %v above the relaxed makespan %v of %v", trial, bound, tx, x)
			}
		}
		prob := eq3Problem(co, n, false)
		side := lp.FloatConstraint{Coeffs: make([]float64, p+1), Rel: lp.LE, RHS: float64(rhs)}
		if above {
			side.Rel = lp.GE
		}
		for j := i; j < p; j++ {
			side.Coeffs[j] = 1
		}
		prob.Constraints = append(prob.Constraints, side)
		sol, err := lp.SolveFloat(prob)
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("trial %d: exit LP %v %v", trial, err, sol)
		}
		if bound > sol.Objective*(1+1e-9) {
			t.Fatalf("trial %d: bound %v above the exit LP optimum %v", trial, bound, sol.Objective)
		}
	}
}

// exitPoint draws a real distribution of n items with S_i <= rhs
// (below) or S_i >= rhs (above).
func exitPoint(rng *rand.Rand, p, n, i int, above bool, rhs int) []float64 {
	s := rng.Float64() * float64(rhs)
	if above {
		s = float64(rhs) + rng.Float64()*float64(n-rhs)
	}
	x := make([]float64, p)
	spread := func(lo, hi int, total float64) {
		w := make([]float64, hi-lo)
		sum := 0.0
		for k := range w {
			w[k] = rng.Float64()
			sum += w[k]
		}
		for k := range w {
			x[lo+k] = total * w[k] / sum
		}
	}
	spread(0, i, float64(n)-s)
	spread(i, p, s)
	return x
}

func relaxedMakespan(co []affineCoef, x []float64) float64 {
	t, comm := 0.0, 0.0
	for k, c := range co {
		comm += c.alpha * x[k]
		t = math.Max(t, comm+c.beta*x[k])
	}
	return t
}

// TestSolveCertifiedIneligible: platforms with a cost other than
// cost.Linear or cost.Affine are never certified.
func TestSolveCertifiedIneligible(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	procs := randomTableProcs(rng, 4, 5000)
	_, cert, err := SolveCertified(procs, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Certified || cert.Reason != errNotAffine {
		t.Fatalf("table costs: certificate %+v", cert)
	}
	if _, _, err := SolveCertified(nil, 10); err == nil {
		t.Fatal("no processors: want an error")
	}
}
