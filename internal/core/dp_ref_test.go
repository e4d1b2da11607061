package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cost"
)

// This file holds the test-only reference kernels the production
// solvers are held to bit for bit: the paper's Algorithm 2 with a
// binary search in every cell (and its two optimizations switchable,
// for the ablation), the plain linear-scan specification of one
// rowRange cell, and the coarse solver as first written — full [0, n]
// cost tables and unpruned grid and refine scans.

// referenceCell is the specification of one rowRange cell, written as
// plainly as possible: find the crossover emax by linear scan, then
// take the largest e in [0, emax] minimizing the recurrence (ties keep
// the larger e, matching the solver's descending strict-less scan).
// No binary search, no neighbor seeding, no early break — everything
// the kernel optimizes away must not change the answer.
func referenceCell(comm, comp, costNext []float64, d int) (int32, float64) {
	emax := d
	for e := 0; e <= d; e++ {
		if comp[e] >= costNext[d-e] {
			emax = e
			break
		}
	}
	sol := emax
	min := comm[sol] + maxf(comp[sol], costNext[d-sol])
	for e := emax - 1; e >= 0; e-- {
		if m := comm[e] + maxf(comp[e], costNext[d-e]); m < min {
			sol, min = e, m
		}
	}
	return int32(sol), min
}

// refOptions switches off the two optimizations that turn Algorithm 1
// into Algorithm 2. The zero value is the full Algorithm 2.
type refOptions struct {
	// noBinarySearch replaces the binary search for the
	// communication/computation crossover (the paper's lines 16-26)
	// with a scan starting at e = d.
	noBinarySearch bool
	// noEarlyBreak removes the monotonicity cutoff (the paper's lines
	// 32-34) from the descending scan.
	noEarlyBreak bool
	// blockBound is rowRange's block-bounded scan: past the first four
	// shares, the descending scan walks blocks [a, e] of firstScanBlock
	// shares, doubling after each skip, and skips a block whose lower
	// bound comm[a] + costNext[d-e] is already >= min.
	blockBound bool
	// work, when set, counts the cells filled, the shares their
	// descending scans evaluate and the block bounds they check.
	work *kernelWork
}

// kernelWork is a counting run's tally: rowRange's cost per cell is
// dominated by the descending tie-break scan, so scanShares/cells is
// the length of the scan a cell pays for on average, and
// boundChecks/cells the block bounds it checks besides.
type kernelWork struct{ cells, scanShares, boundChecks int64 }

// referenceAlgorithm2 is the paper's Algorithm 2 as written: one
// sequential loop over the rows, a fresh binary search for the
// crossover in every cell, a descending scan from it with the early
// break. It tabulates every processor afresh and shares no code with
// solveRows beyond tabulate and reconstruct.
func referenceAlgorithm2(procs []Processor, n int, opts refOptions) (Result, error) {
	if err := validateDPInput(procs, n); err != nil {
		return Result{}, err
	}
	p := len(procs)

	choice := make([][]int32, p)
	for i := range choice {
		choice[i] = make([]int32, n+1)
	}
	costNext := make([]float64, n+1)
	costCur := make([]float64, n+1)
	comm := make([]float64, n+1)
	comp := make([]float64, n+1)

	tabulate(procs[p-1], n, comm, comp)
	for d := 0; d <= n; d++ {
		costNext[d] = comm[d] + comp[d]
		choice[p-1][d] = int32(d)
	}

	for i := p - 2; i >= 0; i-- {
		tabulate(procs[i], n, comm, comp)
		costCur[0] = comm[0] + maxf(comp[0], costNext[0])
		choice[i][0] = 0
		for d := 1; d <= n; d++ {
			var sol int
			var min float64
			if opts.noBinarySearch {
				sol = d
				min = comm[d] + maxf(comp[d], costNext[0])
			} else {
				// emax is the smallest e with Tcomp(i,e) >=
				// cost[d-e, i+1]; the predicate is monotone in e.
				lo, hi := 0, d
				for lo < hi {
					mid := (lo + hi) / 2
					if comp[mid] >= costNext[d-mid] {
						hi = mid
					} else {
						lo = mid + 1
					}
				}
				sol = lo
				min = comm[lo] + maxf(comp[lo], costNext[d-lo])
			}
			// scan evaluates the shares e down to lo and reports
			// whether the early break let it finish.
			var scanned, checks int64
			scan := func(e, lo int) bool {
				for ; e >= lo; e-- {
					scanned++
					rest := costNext[d-e]
					m := comm[e] + maxf(comp[e], rest)
					if m < min {
						sol, min = e, m
					} else if !opts.noEarlyBreak && rest >= min {
						return false
					}
				}
				return true
			}
			if top := sol - 1; !opts.blockBound {
				scan(top, 0)
			} else if scan(top, max(top-3, 0)) {
				for e, size := top-4, firstScanBlock; e >= 0; {
					a := max(e-size+1, 0)
					rest := costNext[d-e]
					checks++
					if comm[a]+rest >= min {
						if !opts.noEarlyBreak && rest >= min {
							break
						}
						e, size = a-1, 2*size
						continue
					}
					if !scan(e, a) {
						break
					}
					e = a - 1
				}
			}
			if opts.work != nil {
				opts.work.cells++
				opts.work.scanShares += scanned
				opts.work.boundChecks += checks
			}
			choice[i][d] = int32(sol)
			costCur[d] = min
		}
		costCur, costNext = costNext, costCur
	}
	return reconstruct(procs, n, choice), nil
}

// referenceSolveCoarse is the coarse solver as first written: a full
// [0, n] comm/comp table per processor and row, the unpruned grid and
// refine scans, and the reference Algorithm 2 as the small-instance
// fallback. solveCoarse must match it bit for bit. gridOnly returns
// the grid-optimal distribution without the refinement pass, for tests
// that price the refinement against it.
func referenceSolveCoarse(procs []Processor, n, g int, gridOnly bool) (CoarseResult, error) {
	if g < 1 {
		return CoarseResult{}, fmt.Errorf("core: granularity %d < 1", g)
	}
	if err := validateDPInput(procs, n); err != nil {
		return CoarseResult{}, err
	}
	if g == 1 || n <= 4*g {
		res, err := referenceAlgorithm2(procs, n, refOptions{})
		if err != nil {
			return CoarseResult{}, err
		}
		return CoarseResult{Result: res, LowerBound: res.Makespan, Granularity: 1, Exact: true}, nil
	}
	p := len(procs)
	comm := make([]float64, n+1)
	comp := make([]float64, n+1)

	K := (n + g - 1) / g
	gr := coarseGrid{g: g, r: n - (K-1)*g, K: K}
	up := make([]float64, K+1)
	upNext := make([]float64, K+1)
	lb := make([]float64, K+1)
	lbNext := make([]float64, K+1)
	choice := make([][]int32, p)
	for i := range choice {
		choice[i] = make([]int32, K+1)
	}
	tabulate(procs[p-1], n, comm, comp)
	for k := 0; k <= K; k++ {
		d := gr.sv(k)
		upNext[k] = comm[d] + comp[d]
		choice[p-1][k] = int32(k)
		d = gr.dLo(k)
		lbNext[k] = comm[d] + comp[d]
	}
	for i := p - 2; i >= 0; i-- {
		tabulate(procs[i], n, comm, comp)
		referenceGridRow(gr, comm, comp, upNext, lbNext, up, lb, choice[i])
		up, upNext = upNext, up
		lb, lbNext = lbNext, lb
	}
	lower := lbNext[K]

	dist := make(Distribution, p)
	k := K
	for i := 0; i < p; i++ {
		j := int(choice[i][k])
		dist[i] = gr.sv(k) - gr.sv(k-j)
		k -= j
	}
	if gridOnly {
		res := Result{Distribution: dist, Makespan: Makespan(procs, dist)}
		return CoarseResult{Result: res, LowerBound: lower, Band: certifiedBand(res.Makespan, lower), Granularity: g}, nil
	}

	w := g
	lo := make([]int, p)
	hi := make([]int, p)
	rem := n
	for i := 0; i < p; i++ {
		lo[i], hi[i] = max(0, rem-w), min(n, rem+w)
		rem -= dist[i]
	}
	lo[0], hi[0] = n, n
	costW := make([][]float64, p)
	choiceW := make([][]int32, p)
	for i := range costW {
		costW[i] = make([]float64, hi[i]-lo[i]+1)
		choiceW[i] = make([]int32, hi[i]-lo[i]+1)
	}
	tabulate(procs[p-1], n, comm, comp)
	for d := lo[p-1]; d <= hi[p-1]; d++ {
		costW[p-1][d-lo[p-1]] = comm[d] + comp[d]
		choiceW[p-1][d-lo[p-1]] = int32(d)
	}
	for i := p - 2; i >= 0; i-- {
		tabulate(procs[i], n, comm, comp)
		referenceRefineRow(comm, comp, costW[i+1], lo[i+1], costW[i], choiceW[i], lo[i], hi[i])
	}
	refined := make(Distribution, p)
	d := n
	for i := 0; i < p; i++ {
		refined[i] = int(choiceW[i][d-lo[i]])
		d -= refined[i]
	}
	if err := refined.Validate(p, n); err != nil {
		return CoarseResult{}, err
	}
	res := Result{Distribution: refined, Makespan: Makespan(procs, refined)}
	return CoarseResult{Result: res, LowerBound: lower, Band: certifiedBand(res.Makespan, lower), Granularity: g}, nil
}

// dLo is the smallest remainder in the interval I_k = (s_{k-1}, s_k]
// that grid state k abstracts in the lower-bound DP.
func (gr coarseGrid) dLo(k int) int {
	if k == 0 {
		return 0
	}
	return gr.sv(k-1) + 1
}

// eLo is the smallest share that consuming j segments out of state k
// can stand for: (j-1)·g + 1 interior, dLo(k) when it empties the
// remainder. It never decreases in j.
func (gr coarseGrid) eLo(k, j int) int {
	if j == k {
		return gr.dLo(k)
	}
	return (j-1)*gr.g + 1
}

// referenceGridRow is one grid row without the lower-bound break,
// reading full tables: every segment count j in [1, k] is evaluated in
// both grid DPs.
func referenceGridRow(gr coarseGrid, comm, comp, upNext, lbNext, up, lb []float64, choice []int32) {
	for k := 0; k <= gr.K; k++ {
		base := gr.sv(k)
		bj := 0
		bm := comm[0] + maxf(comp[0], upNext[k])
		lm := comm[0] + maxf(comp[0], lbNext[k])
		for j := 1; j <= k; j++ {
			e, elo := base-gr.sv(k-j), gr.eLo(k, j)
			if m := comm[e] + maxf(comp[e], upNext[k-j]); m < bm {
				bj, bm = j, m
			}
			if m := comm[elo] + maxf(comp[elo], lbNext[k-j]); m < lm {
				lm = m
			}
		}
		up[k] = bm
		choice[k] = int32(bj)
		lb[k] = lm
	}
}

// referenceRefineRow is one banded row without the lower-bound break,
// reading full tables: the whole clipped share range is scanned, and
// ties keep the largest share (update on <=), as refineRow does.
func referenceRefineRow(comm, comp, next []float64, loNext int, cost []float64, choice []int32, lo, hi int) {
	hiNext := loNext + len(next) - 1
	for d := lo; d <= hi; d++ {
		eMin := d - hiNext
		if eMin < 0 {
			eMin = 0
		}
		sol := eMin
		min := comm[eMin] + maxf(comp[eMin], next[d-eMin-loNext])
		for e := eMin + 1; e <= d-loNext; e++ {
			if m := comm[e] + maxf(comp[e], next[d-e-loNext]); m <= min {
				sol, min = e, m
			}
		}
		cost[d-lo] = min
		choice[d-lo] = int32(sol)
	}
}

// table1Procs is the paper's Table 1 platform (16 CPUs, root dinadan
// last) in descending-bandwidth order, as platform.Table1 expands it;
// the platform package cannot be imported from here.
func table1Procs() []Processor {
	machines := []struct {
		name        string
		cpus        int
		beta, alpha float64
	}{
		{"dinadan", 1, 0.009288, 0},
		{"pellinore", 1, 0.009365, 1.12e-5},
		{"caseb", 1, 0.004629, 1.00e-5},
		{"sekhmet", 1, 0.004885, 1.70e-5},
		{"merlin", 2, 0.003976, 8.15e-5},
		{"seven", 2, 0.016156, 2.10e-5},
		{"leda", 8, 0.009677, 3.53e-5},
	}
	var procs []Processor
	for _, m := range machines {
		for k := 0; k < m.cpus; k++ {
			name := m.name
			if m.cpus > 1 {
				name = fmt.Sprintf("%s#%d", m.name, k+1)
			}
			procs = append(procs, Processor{Name: name, Comm: cost.Linear{PerItem: m.alpha}, Comp: cost.Linear{PerItem: m.beta}})
		}
	}
	// The root is served last and receives for free.
	root := procs[0]
	root.Comm = cost.Zero
	procs = append(procs[1:], root)
	return Permute(procs, OrderDecreasingBandwidth(procs, len(procs)-1))
}

// randomFloatAffineProcs draws affine processors with arbitrary float
// coefficients, so cost sums round.
func randomFloatAffineProcs(rng *rand.Rand, p int) []Processor {
	procs := make([]Processor, p)
	for i := range procs {
		procs[i] = Processor{
			Name: fmt.Sprintf("F%d", i),
			Comm: cost.Affine{Fixed: rng.Float64() * 1e-2, PerItem: rng.Float64() * 1e-4},
			Comp: cost.Affine{Fixed: rng.Float64() * 1e-2, PerItem: 1e-3 + rng.Float64()*1e-2},
		}
	}
	procs[p-1].Comm = cost.Zero
	return procs
}

// randomDyadicProcs draws affine processors whose coefficients are
// small dyadic rationals, so every cost sum is exact in float64, with
// per-item link costs three orders of magnitude below the CPUs' as on
// Table 1 — which keeps the kernel's descending scans short at large n.
func randomDyadicProcs(rng *rand.Rand, p int) []Processor {
	procs := make([]Processor, p)
	for i := range procs {
		procs[i] = Processor{
			Name: fmt.Sprintf("D%d", i),
			Comm: cost.Affine{Fixed: float64(rng.Intn(4)) / 16, PerItem: float64(rng.Intn(8)) / (1 << 20)},
			Comp: cost.Affine{Fixed: float64(rng.Intn(4)) / 16, PerItem: float64(1+rng.Intn(8)) / 128},
		}
	}
	procs[p-1].Comm = cost.Zero
	return procs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if !sameBits(got.Makespan, want.Makespan) || !equalDist(got.Distribution, want.Distribution) {
		t.Fatalf("%s: got %v (makespan %x), want %v (makespan %x)",
			label, got.Distribution, got.Makespan, want.Distribution, want.Makespan)
	}
}

// TestAlgorithm2AblationsAgree: each of Algorithm 2's optimizations
// may be switched off without changing the optimal makespan.
func TestAlgorithm2AblationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	variants := []refOptions{
		{noBinarySearch: true},
		{noEarlyBreak: true},
		{noBinarySearch: true, noEarlyBreak: true},
		{blockBound: true},
		{blockBound: true, noBinarySearch: true},
	}
	for trial := 0; trial < 25; trial++ {
		p := 1 + rng.Intn(5)
		n := rng.Intn(30)
		procs := randomAffineProcs(rng, p)
		ref, err := referenceAlgorithm2(procs, n, refOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for vi, v := range variants {
			got, err := referenceAlgorithm2(procs, n, v)
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != ref.Makespan {
				t.Errorf("trial %d variant %d: makespan %g != %g", trial, vi+1, got.Makespan, ref.Makespan)
			}
		}
	}
}

// TestAlgorithm2BlockBoundWork asserts the block bound's saving rather
// than only recording it: on Table 1 at the repository benchmark's
// 50,381 items, the block-bounded scan answers bit for bit as the
// early-break scan does and evaluates at most a fifth of its shares.
func TestAlgorithm2BlockBoundWork(t *testing.T) {
	procs := table1Procs()
	const n = 50381
	var plain, bounded kernelWork
	want, err := referenceAlgorithm2(procs, n, refOptions{work: &plain})
	if err != nil {
		t.Fatal(err)
	}
	got, err := referenceAlgorithm2(procs, n, refOptions{blockBound: true, work: &bounded})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "table1 blockBound", got, want)
	if plain.cells != bounded.cells {
		t.Fatalf("cells filled: %d with the block bound, %d without", bounded.cells, plain.cells)
	}
	if 5*bounded.scanShares > plain.scanShares {
		t.Fatalf("block-bounded scan evaluated %d shares, more than a fifth of the early-break scan's %d",
			bounded.scanShares, plain.scanShares)
	}
	t.Logf("shares per cell: %.1f early break, %.1f block-bounded plus %.1f bound checks",
		float64(plain.scanShares)/float64(plain.cells),
		float64(bounded.scanShares)/float64(bounded.cells),
		float64(bounded.boundChecks)/float64(bounded.cells))
}

// TestAlgorithm2MatchesReferenceKernel holds the one exact driver to
// the paper's per-cell-search Algorithm 2 bit for bit, on both sides of
// the row-pool threshold and at every worker count.
func TestAlgorithm2MatchesReferenceKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	platforms := []struct {
		name  string
		procs []Processor
		sizes []int
	}{
		{"table1", table1Procs(), []int{0, 1, 4097, planParallelThreshold - 1, planParallelThreshold + 1234}},
		{"dyadic", randomDyadicProcs(rng, 6), []int{2, 4097, planParallelThreshold - 1, planParallelThreshold, planParallelThreshold + 1234}},
		{"dyadic-linear", randomLinearProcs(rng, 5), []int{0, 17, 2000}},
		{"dyadic-affine", randomAffineProcs(rng, 4), []int{1, 33, 2000}},
		{"float-affine", randomFloatAffineProcs(rng, 3), []int{5000, planParallelThreshold + 1234}},
	}
	workers := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, pf := range platforms {
		for _, n := range pf.sizes {
			want, err := referenceAlgorithm2(pf.procs, n, refOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Algorithm2(pf.procs, n)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("%s n=%d Algorithm2", pf.name, n), got, want)
			if n <= planParallelThreshold {
				continue // one pooled size per platform sweeps the workers
			}
			for _, w := range workers {
				got, err := Algorithm2Parallel(pf.procs, n, w)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("%s n=%d workers=%d", pf.name, n, w), got, want)
			}
		}
	}
}

// TestAlgorithm2Concurrent runs Algorithm2 from 16 goroutines at once,
// at a size that starts a row pool per call and at one that stays on
// the caller; every answer must match the reference kernel's.
func TestAlgorithm2Concurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	procs := randomDyadicProcs(rng, 4)
	for _, n := range []int{3000, planParallelThreshold + 7} {
		want, err := referenceAlgorithm2(procs, n, refOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := Algorithm2(procs, n)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameBits(got.Makespan, want.Makespan) || !equalDist(got.Distribution, want.Distribution) {
					t.Errorf("n=%d: concurrent %v != reference %v", n, got.Distribution, want.Distribution)
				}
			}()
		}
		wg.Wait()
	}
}

// randomTableProcs draws processors whose costs are measured tables
// (cost.Table, the per-entry branch of fillCosts) with arbitrary float
// increments and flat stretches, covering half of [0, n] so the rest
// is extrapolated.
func randomTableProcs(rng *rand.Rand, p, n int) []Processor {
	table := func(scale float64) cost.Table {
		v := make([]float64, n/2+2)
		for x := 1; x < len(v); x++ {
			v[x] = v[x-1]
			if rng.Intn(4) != 0 {
				v[x] += rng.Float64() * scale
			}
		}
		return cost.Table{Values: v, Increasing: true}
	}
	procs := make([]Processor, p)
	for i := range procs {
		procs[i] = Processor{Name: fmt.Sprintf("T%d", i), Comm: table(1e-4), Comp: table(1e-2)}
	}
	procs[p-1].Comm = cost.Zero
	return procs
}

func requireSameCoarse(t *testing.T, label string, got, want CoarseResult) {
	t.Helper()
	if !equalDist(got.Distribution, want.Distribution) || !sameBits(got.Makespan, want.Makespan) ||
		!sameBits(got.LowerBound, want.LowerBound) || !sameBits(got.Band, want.Band) ||
		got.Granularity != want.Granularity || got.Exact != want.Exact {
		t.Fatalf("%s: solveCoarse %+v != reference %+v", label, got, want)
	}
}

// TestSolveCoarseMatchesUnprunedReference: evaluating costs only at
// the shares the scans read, and the lower-bound breaks in the grid
// and refine scans, never change a coarse answer — not the
// distribution, its makespan, the lower bound or the band. It covers
// every cost type fillCosts distinguishes (affine with fixed costs,
// measured tables), g dividing n or not, the exact fallback and p = 1.
func TestSolveCoarseMatchesUnprunedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, g := range []int{2, 3, 16, 128, 1024} {
		for trial := 0; trial < 12; trial++ {
			p := 1 + rng.Intn(6)
			n := rng.Intn(40*g + 1)
			switch trial {
			case 0:
				n = 4 * g // the largest exact fallback
			case 1:
				p, n = 1, 4*g+1+rng.Intn(8*g) // one processor takes everything
			case 2:
				n = (5 + rng.Intn(30)) * g // g divides n: no partial segment
			}
			var procs []Processor
			switch trial % 4 {
			case 0:
				procs = randomLinearProcs(rng, p)
			case 1:
				procs = randomAffineProcs(rng, p)
			case 2:
				procs = randomFloatAffineProcs(rng, p)
			default:
				procs = randomTableProcs(rng, p, n)
			}
			got, err := SolveCoarse(procs, n, g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceSolveCoarse(procs, n, g, false)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCoarse(t, fmt.Sprintf("g=%d trial=%d p=%d n=%d", g, trial, p, n), got, want)
		}
	}
}

// TestSolveCoarseTable1MatchesUnprunedReference pins the coarse solver
// to the full-table reference at the paper's full 817,101-item scale.
func TestSolveCoarseTable1MatchesUnprunedReference(t *testing.T) {
	procs := table1Procs()
	const n, g = 817101, 1024
	got, err := SolveCoarse(procs, n, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceSolveCoarse(procs, n, g, false)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCoarse(t, "table1", got, want)
}

// BenchmarkAlg2Ablation isolates the two optimizations that turn
// Algorithm 1 into Algorithm 2: the binary-searched crossover and the
// early break (DESIGN.md ablation A1), on the reference kernel, and
// the block bound rowRange adds to the early break. The table1-50381
// case is a counting run at the repository benchmark's Table 1 job
// size: it reports how many shares the descending tie-break scan
// evaluates per cell with the early break alone and with the block
// bound, and how many block bounds the latter checks (DESIGN.md §15).
func BenchmarkAlg2Ablation(b *testing.B) {
	procs := table1Procs()
	const n = 10000
	variants := []struct {
		name string
		opts refOptions
	}{
		{"full", refOptions{}},
		{"noBinarySearch", refOptions{noBinarySearch: true}},
		{"noEarlyBreak", refOptions{noEarlyBreak: true}},
		{"neither", refOptions{noBinarySearch: true, noEarlyBreak: true}},
		{"blockBound", refOptions{blockBound: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := referenceAlgorithm2(procs, n, v.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("table1-50381", func(b *testing.B) {
		var plain, bounded kernelWork
		for i := 0; i < b.N; i++ {
			plain, bounded = kernelWork{}, kernelWork{}
			if _, err := referenceAlgorithm2(procs, 50381, refOptions{work: &plain}); err != nil {
				b.Fatal(err)
			}
			if _, err := referenceAlgorithm2(procs, 50381, refOptions{blockBound: true, work: &bounded}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(plain.scanShares)/float64(plain.cells), "scan-shares/cell")
		b.ReportMetric(float64(bounded.scanShares)/float64(bounded.cells), "bounded-shares/cell")
		b.ReportMetric(float64(bounded.boundChecks)/float64(bounded.cells), "bound-checks/cell")
	})
}
