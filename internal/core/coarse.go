package core

import "fmt"

// This file implements the coarsen-then-refine solver for the cold
// path. The exact Algorithm 2 prices a fresh 817k-item solve at tens
// of seconds; solving the same recurrence on a grid of granularity g
// shrinks the row work by ~g² and a banded second pass refines the
// boundaries with the exact kernel. The result is not guaranteed
// optimal, but it carries a machine-checked optimality band in the
// style of the Eq. (4) rounding guarantee: a companion optimistic
// dynamic program on the same grid lower-bounds the exact optimum, so
//
//	Makespan - Band <= Topt <= Makespan
//
// holds by construction, and every consumer can see how far from
// optimal the fast answer can possibly be.
//
// Grid structure. The reachable remainders are S = {s_0..s_K} with
// s_0 = 0, s_k = r + (k-1)·g, K = ceil(n/g) and r = n - (K-1)·g in
// (0, g], so s_K = n. A grid-feasible solution keeps every prefix
// remainder ("items left for processors i..p") in S; shares are then
// multiples of g except for the one that consumes the partial segment
// r. Snapping an optimal solution's prefix remainders down to S moves
// every share by less than g, which is what makes the grid optimum
// close to the true one (see CoarsenBound).

// CoarseResult is the outcome of a coarsen-then-refine solve: a
// feasible distribution plus a machine-checked optimality band.
type CoarseResult struct {
	Result
	// LowerBound is a proven lower bound on the exact optimal
	// makespan, computed by the optimistic grid dynamic program.
	LowerBound float64
	// Band bounds the distance to optimal:
	// Makespan - Topt <= Band = max(0, Makespan - LowerBound).
	Band float64
	// Granularity is the grid step the solve ran at (1 when the
	// instance was small enough to fall back to the exact DP).
	Granularity int
	// Refined reports whether the banded refinement pass ran.
	Refined bool
	// Exact reports that the solver fell back to the exact Algorithm
	// 2, so the distribution is optimal and Band is zero.
	Exact bool
}

// CoarseOptions tunes SolveCoarseOpt. The zero value refines with a
// window of one grid step.
type CoarseOptions struct {
	// Window is the refinement half-width in items around each coarse
	// cut; <= 0 selects the granularity g.
	Window int
	// SkipRefine returns the grid-optimal distribution without the
	// banded refinement pass (the engine's coarse-only policy). The
	// band still holds; it just tends to be wider.
	SkipRefine bool
}

// SolveCoarse computes a near-optimal distribution of n items at
// granularity g: it solves the Algorithm 2 recurrence restricted to
// grid-aligned cuts (K = ceil(n/g) cells per row instead of n), then
// refines a ±g window around each coarse cut with the exact kernel.
// It requires increasing cost functions, like Algorithm2. Instances
// with n <= 4g fall back to the exact DP.
func SolveCoarse(procs []Processor, n, g int) (CoarseResult, error) {
	return solveCoarse(nil, procs, n, g, 0, CoarseOptions{})
}

// SolveCoarseOpt is SolveCoarse with explicit refinement options.
func SolveCoarseOpt(procs []Processor, n, g int, opts CoarseOptions) (CoarseResult, error) {
	return solveCoarse(nil, procs, n, g, 0, opts)
}

func solveCoarse(tc *tabCache, procs []Processor, n, g, workers int, opts CoarseOptions) (CoarseResult, error) {
	return solveCoarseScans(tc, procs, n, g, workers, opts, coarseScans{grid: gridRow, refine: refineRow})
}

// coarseScans are the two row scans of a coarse solve. Every solve runs
// the pruned gridRow and refineRow; the tests run the unpruned scans
// they replaced through the same driver, as the reference the pruned
// ones must match bit for bit.
type coarseScans struct {
	grid   func(gr coarseGrid, comm, comp, upNext, lbNext, up, lb []float64, choice []int32)
	refine func(comm, comp, next []float64, loNext int, cost []float64, choice []int32, lo, hi int)
}

func solveCoarseScans(tc *tabCache, procs []Processor, n, g, workers int, opts CoarseOptions, scans coarseScans) (CoarseResult, error) {
	if g < 1 {
		return CoarseResult{}, fmt.Errorf("core: granularity %d < 1", g)
	}
	if err := validateDPInput(procs, n); err != nil {
		return CoarseResult{}, err
	}
	if g == 1 || n <= 4*g {
		// The grid would be too small to help; the exact DP is cheap
		// here and gives a zero band.
		res, err := algorithm2(tc, procs, n, workers)
		if err != nil {
			return CoarseResult{}, err
		}
		return CoarseResult{Result: res, LowerBound: res.Makespan, Granularity: 1, Exact: true}, nil
	}
	p := len(procs)
	fps := fingerprints(procs)

	K := (n + g - 1) / g
	// r is the size of the first (partial) grid segment, in (0, g].
	gr := coarseGrid{g: g, r: n - (K-1)*g, K: K}

	// Two dynamic programs over the grid, filled in one pass per row:
	//
	// up[k]: the exact cost of the best grid-feasible split of s_k
	// items over the row's processor suffix — an upper bound on the
	// true cost, achieved by a real distribution (reconstructed from
	// choice).
	//
	// lb[k]: an optimistic value <= cost[d, i] for every d in I_k. Each
	// transition consuming j grid segments is charged the smallest
	// share that can realize it (gr.eLo), so by induction (costs
	// increasing, float rounding monotone) lb[K] at row 0 is a true
	// lower bound on the exact optimum for d = n.
	up := make([]float64, K+1)
	upNext := make([]float64, K+1)
	lb := make([]float64, K+1)
	lbNext := make([]float64, K+1)
	choice := make([][]int32, p) // choice[i][k]: grid segments Pi takes
	for i := range choice {
		choice[i] = make([]int32, K+1)
	}

	comm, comp, done := tc.tables(procs[p-1], fps[p-1], n)
	for k := 0; k <= K; k++ {
		d := gr.sv(k)
		upNext[k] = comm[d] + comp[d]
		choice[p-1][k] = int32(k)
		d = gr.dLo(k)
		lbNext[k] = comm[d] + comp[d]
	}
	done()

	for i := p - 2; i >= 0; i-- {
		comm, comp, done := tc.tables(procs[i], fps[i], n)
		scans.grid(gr, comm, comp, upNext, lbNext, up, lb, choice[i])
		done()
		up, upNext = upNext, up
		lb, lbNext = lbNext, lb
	}
	lower := lbNext[K]

	// Reconstruct the grid-optimal distribution.
	dist := make(Distribution, p)
	k := K
	for i := 0; i < p; i++ {
		j := int(choice[i][k])
		dist[i] = gr.sv(k) - gr.sv(k-j)
		k -= j
	}

	if opts.SkipRefine {
		res := Result{Distribution: dist, Makespan: Makespan(procs, dist)}
		band := res.Makespan - lower
		if band < 0 {
			band = 0
		}
		return CoarseResult{Result: res, LowerBound: lower, Band: band, Granularity: g}, nil
	}

	// Banded refinement: re-run the exact recurrence restricted to a
	// ±w window around the coarse trajectory's prefix remainders. The
	// coarse trajectory itself lies inside every window, so the refined
	// cost never exceeds the coarse one; the windows are monotone
	// (rem[i] >= rem[i+1]), so every banded cell has a feasible share.
	w := opts.Window
	if w <= 0 {
		w = g
	}
	rem := make([]int, p+1)
	rem[0] = n
	for i := 0; i < p; i++ {
		rem[i+1] = rem[i] - dist[i]
	}
	lo := make([]int, p)
	hi := make([]int, p)
	for i := 0; i < p; i++ {
		lo[i] = rem[i] - w
		if lo[i] < 0 {
			lo[i] = 0
		}
		hi[i] = rem[i] + w
		if hi[i] > n {
			hi[i] = n
		}
	}
	// The first row is only ever read at d = n (the full problem).
	lo[0], hi[0] = n, n

	costW := make([][]float64, p)
	choiceW := make([][]int32, p)
	for i := range costW {
		costW[i] = make([]float64, hi[i]-lo[i]+1)
		choiceW[i] = make([]int32, hi[i]-lo[i]+1)
	}

	comm, comp, done = tc.tables(procs[p-1], fps[p-1], n)
	for d := lo[p-1]; d <= hi[p-1]; d++ {
		costW[p-1][d-lo[p-1]] = comm[d] + comp[d]
		choiceW[p-1][d-lo[p-1]] = int32(d)
	}
	done()
	// Each banded cell scans up to 2w+1 shares, so a row is worth
	// splitting over the row pool once its up to 2w+1 cells exceed
	// one chunk.
	var rp *rowPool
	if 2*w+1 > minRowChunk {
		rp = newRowPool(workers)
		defer rp.close()
	}
	for i := p - 2; i >= 0; i-- {
		comm, comp, done := tc.tables(procs[i], fps[i], n)
		rp.run(hi[i]-lo[i], &bandRow{refine: scans.refine, comm: comm, comp: comp,
			next: costW[i+1], loNext: lo[i+1], cost: costW[i], choice: choiceW[i], lo: lo[i]})
		done()
	}

	refined := make(Distribution, p)
	d := n
	for i := 0; i < p; i++ {
		e := int(choiceW[i][d-lo[i]])
		refined[i] = e
		d -= e
	}
	if err := refined.Validate(p, n); err != nil {
		return CoarseResult{}, fmt.Errorf("core: coarse refinement produced an invalid distribution: %w", err)
	}

	res := Result{Distribution: refined, Makespan: Makespan(procs, refined)}
	band := res.Makespan - lower
	if band < 0 {
		band = 0
	}
	return CoarseResult{Result: res, LowerBound: lower, Band: band, Granularity: g, Refined: true}, nil
}

// bandRow is one banded refinement row for the row pool: its cells
// [a, b] are the remainders [lo+a, lo+b].
type bandRow struct {
	refine           func(comm, comp, next []float64, loNext int, cost []float64, choice []int32, lo, hi int)
	comm, comp, next []float64
	loNext, lo       int
	cost             []float64
	choice           []int32
}

func (r *bandRow) fill(a, b int) {
	r.refine(r.comm, r.comp, r.next, r.loNext, r.cost[a:], r.choice[a:], r.lo+a, r.lo+b)
}

// coarseGrid is a coarse solve's state space: grid state k stands for
// the remainder s_k, and K = ceil(n/g) states cover n.
type coarseGrid struct {
	g, r, K int // step, first (partial) segment, last state
}

// sv maps a grid state k to the remainder it stands for: s_k.
func (gr coarseGrid) sv(k int) int {
	if k == 0 {
		return 0
	}
	return gr.r + (k-1)*gr.g
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

// gridRow fills one row of both grid DPs — up[k], choice[k] and lb[k]
// for every state k — from the next row's upNext and lbNext. Ties keep
// the fewest segments.
//
// The scan over j stops at a lower-bound break: a candidate with share
// e costs comm[e] + max(comp[e], next) >= comm[e] + comp[e], and that
// sum never decreases in e. Both the upper share e and the optimistic
// share eLo grow with j, so once both sums reach their running minima
// no later j can win either DP (see DESIGN.md §15).
func gridRow(gr coarseGrid, comm, comp, upNext, lbNext, up, lb []float64, choice []int32) {
	for k := 0; k <= gr.K; k++ {
		base := gr.sv(k)
		bj := 0
		bm := comm[0] + maxf(comp[0], upNext[k])
		lm := comm[0] + maxf(comp[0], lbNext[k])
		for j := 1; j <= k; j++ {
			e, elo := base-gr.sv(k-j), gr.eLo(k, j)
			if comm[e]+comp[e] >= bm && comm[elo]+comp[elo] >= lm {
				break
			}
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

// refineRow fills one banded DP row: cost[d-lo] and choice[d-lo] for d
// in [lo, hi], where the next row is only known on [loNext, loNext +
// len(next) - 1]. The share range for each d is clipped so d-e stays
// inside the next row's window; windows produced by solveCoarse are
// monotone, which keeps that range non-empty. A banded next row is not
// monotone at its window edges, so rowRange's crossover search and
// descending break do not apply; the ascending scan stops instead at
// the lower-bound break of gridRow: once comm[e] + comp[e] reaches the
// running minimum, no larger share can beat it. Ties keep the smallest
// share, like Algorithm 1.
func refineRow(comm, comp, next []float64, loNext int, cost []float64, choice []int32, lo, hi int) {
	hiNext := loNext + len(next) - 1
	for d := lo; d <= hi; d++ {
		eMin := d - hiNext
		if eMin < 0 {
			eMin = 0
		}
		eMax := d - loNext
		sol := eMin
		min := comm[eMin] + maxf(comp[eMin], next[d-eMin-loNext])
		for e := eMin + 1; e <= eMax && comm[e]+comp[e] < min; e++ {
			if m := comm[e] + maxf(comp[e], next[d-e-loNext]); m < min {
				sol, min = e, m
			}
		}
		cost[d-lo] = min
		choice[d-lo] = int32(sol)
	}
}

// CoarsenBound computes the a-priori optimality gap of solving at
// granularity g on affine platforms, generalizing Eq. (4) (which is
// the g = 1 case backing the rounding guarantee):
//
//	Topt <= Tcoarse <= Topt + sum_j Tcomm(j, g) + max_i Tcomp(i, g)
//
// Snapping an optimal solution's prefix remainders down to the grid
// moves every share by less than g, which for affine costs adds at
// most Tcomm(j, g) per link plus Tcomp(i, g) on the critical
// processor. The machine-checked CoarseResult.Band is usually far
// tighter; this bound needs no solve at all.
func CoarsenBound(procs []Processor, g int) float64 {
	sum := 0.0
	maxComp := 0.0
	for _, p := range procs {
		sum += p.Comm.Eval(g)
		if c := p.Comp.Eval(g); c > maxComp {
			maxComp = c
		}
	}
	return sum + maxComp
}
