package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cost"
)

// This file holds the test-only reference kernels the production
// solvers are held to bit for bit: the paper's Algorithm 2 with a
// binary search in every cell (and its two optimizations switchable,
// for the ablation), the plain linear-scan specification of one
// rowRange cell, and the certificate's banded refine as first written
// — full [0, n] cost tables and an unpruned scan.

// referenceCell is the specification of one rowRange cell, written as
// plainly as possible: find the crossover emax by linear scan, then
// take the largest e in [0, emax] minimizing the recurrence (ties keep
// the larger e, matching the solver's descending strict-less scan).
// No binary search, no neighbor seeding, no early break — everything
// the kernel optimizes away must not change the answer.
func referenceCell(comm, comp, costNext []float64, d int) (int32, float64) {
	emax := referenceCrossover(comp, costNext, d)
	sol := emax
	min := comm[sol] + maxf(comp[sol], costNext[d-sol])
	for e := emax - 1; e >= 0; e-- {
		if m := comm[e] + maxf(comp[e], costNext[d-e]); m < min {
			sol, min = e, m
		}
	}
	return int32(sol), min
}

// referenceCrossover is the crossover of cell d by its definition: the
// smallest e with comp[e] >= costNext[d-e], or d when there is none.
func referenceCrossover(comp, costNext []float64, d int) int {
	for e := 0; e < d; e++ {
		if comp[e] >= costNext[d-e] {
			return e
		}
	}
	return d
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
// fullTable beyond tabulate and reconstruct.
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
// the fan-out threshold. Above it, every platform's table is also
// filled at 1, 2, 4 and 7 workers: seven leave an uneven last chunk.
func TestAlgorithm2MatchesReferenceKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	platforms := []struct {
		name  string
		procs []Processor
		sizes []int
	}{
		{"table1", table1Procs(), []int{0, 1, 4097, rowFanOutThreshold - 1, rowFanOutThreshold + 1234}},
		{"dyadic", randomDyadicProcs(rng, 6), []int{2, 4097, rowFanOutThreshold - 1, rowFanOutThreshold, rowFanOutThreshold + 1234}},
		{"dyadic-linear", randomLinearProcs(rng, 5), []int{0, 17, 2000}},
		{"dyadic-affine", randomAffineProcs(rng, 4), []int{1, 33, 2000}},
		{"float-affine", randomFloatAffineProcs(rng, 3), []int{5000, rowFanOutThreshold + 1234}},
		// Most draws of the linear and affine generators give some
		// processor a link slower than the rest of the platform
		// computes; its cells then scan every share below their
		// crossover, Algorithm 2's O(n²) worst case, at about a second
		// a table at this size and minutes under -race. These seeds
		// draw tables that stay fast, with free and flat links whose
		// ties every chunk split must break as the reference does.
		{"linear", randomLinearProcs(rand.New(rand.NewSource(3)), 4), []int{rowFanOutThreshold + 1234}},
		{"affine", randomAffineProcs(rand.New(rand.NewSource(10)), 4), []int{rowFanOutThreshold + 1234}},
	}
	workers := []int{1, 2, 4, 7}
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
			if n <= rowFanOutThreshold {
				continue // one fanned-out size per platform sweeps the workers
			}
			for _, w := range workers {
				pl, err := fullTable(pf.procs, n, w)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pl.Lookup(n, 0)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("%s n=%d workers=%d", pf.name, n, w), got, want)
			}
		}
	}
}

// TestAlgorithm2Concurrent runs Algorithm2 from 16 goroutines at once,
// at a size whose rows fan out over GOMAXPROCS goroutines per call and
// at one that stays on the caller; every answer must match the
// reference kernel's.
func TestAlgorithm2Concurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	procs := randomDyadicProcs(rng, 4)
	for _, n := range []int{3000, rowFanOutThreshold + 7} {
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

// referenceRefineBand is refineBand as first written: the same ±w
// windows around seed's prefix remainders, but full [0, n] cost tables
// for every row and the unpruned referenceRefineRow scan.
func referenceRefineBand(procs []Processor, n int, seed Distribution, w int) band {
	p := len(procs)
	b := band{lo: make([]int, p), hi: make([]int, p), strict: true}
	rem := n
	for i := range procs {
		b.lo[i], b.hi[i] = max(0, rem-w), min(n, rem+w)
		rem -= seed[i]
	}
	b.lo[0], b.hi[0] = n, n
	comm := make([]float64, n+1)
	comp := make([]float64, n+1)
	cost := make([][]float64, p)
	choice := make([][]int32, p)
	for i := p - 1; i >= 0; i-- {
		lo, hi := b.lo[i], b.hi[i]
		cost[i] = make([]float64, hi-lo+1)
		choice[i] = make([]int32, hi-lo+1)
		tabulate(procs[i], n, comm, comp)
		if i == p-1 {
			for d := lo; d <= hi; d++ {
				cost[i][d-lo], choice[i][d-lo] = comm[d]+comp[d], int32(d)
			}
			continue
		}
		// The shares row i reads run from lo - hi_{i+1} to hi - lo_{i+1}.
		for e := max(0, lo-b.hi[i+1]) + 1; e <= hi-b.lo[i+1]; e++ {
			if comm[e]+comp[e] <= comm[e-1]+comp[e-1] {
				b.strict = false
			}
		}
		referenceRefineRow(comm, comp, cost[i+1], b.lo[i+1], cost[i], choice[i], lo, hi)
	}
	b.dist = make(Distribution, p)
	d := n
	for i := range procs {
		b.dist[i] = int(choice[i][d-b.lo[i]])
		d -= b.dist[i]
	}
	b.value = cost[0][0]
	return b
}

// refineSeeds returns the seeds TestRefineBandMatchesReference
// centres its windows on: Algorithm 2's answer, that answer with up to
// 3w items moved between two processors, a random distribution, and
// one whose first processor takes nothing, which clips the next
// window at n.
func refineSeeds(rng *rand.Rand, opt Distribution, n, w int) []Distribution {
	p := len(opt)
	perturbed := append(Distribution(nil), opt...)
	from, to := rng.Intn(p), rng.Intn(p)
	k := min(perturbed[from], rng.Intn(3*w+1))
	perturbed[from] -= k
	perturbed[to] += k
	random := make(Distribution, p)
	cuts := make([]int, p-1)
	for i := range cuts {
		cuts[i] = rng.Intn(n + 1)
	}
	slices.Sort(cuts)
	prev := 0
	for i, c := range cuts {
		random[i], prev = c-prev, c
	}
	random[p-1] = n - prev
	emptyFirst := make(Distribution, p)
	emptyFirst[p-1] = n
	return []Distribution{opt, perturbed, random, emptyFirst}
}

// TestRefineBandMatchesReference: costing only the shares each window
// reads and the lower-bound break in refineCell never change a banded
// refine — not the distribution, its DP value, the windows or the
// strictness bit. It covers every cost type fillCosts distinguishes,
// tie-heavy dyadic costs, windows from 1 item to twice the certified
// solve's (w = 128), windows clipped at 0 and n, and p = 1.
func TestRefineBandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, w := range []int{1, 2, 3, 16, 128} {
		for trial := 0; trial < 30; trial++ {
			p := 1 + rng.Intn(6)
			n := rng.Intn(40*w + 200)
			var procs []Processor
			switch trial % 5 {
			case 0:
				procs = randomLinearProcs(rng, p)
			case 1:
				procs = randomAffineProcs(rng, p)
			case 2:
				procs = randomFloatAffineProcs(rng, p)
			case 3:
				procs = randomDyadicProcs(rng, p)
			default:
				procs = randomTableProcs(rng, p, n)
			}
			opt, err := Algorithm2(procs, n)
			if err != nil {
				t.Fatal(err)
			}
			for s, seed := range refineSeeds(rng, opt.Distribution, n, w) {
				want := referenceRefineBand(procs, n, seed, w)
				label := fmt.Sprintf("w=%d trial=%d p=%d n=%d seed %d", w, trial, p, n, s)
				got, err := refineBand(procs, n, seed, w)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !equalDist(got.dist, want.dist) || !sameBits(got.value, want.value) || got.strict != want.strict ||
					!slices.Equal(got.lo, want.lo) || !slices.Equal(got.hi, want.hi) {
					t.Fatalf("%s: refineBand %+v != reference %+v", label, got, want)
				}
			}
		}
	}
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
