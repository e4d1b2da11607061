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
	// Granularity is the grid step the solve ran at (1 for an Exact
	// answer).
	Granularity int
	// Exact reports that the solver fell back to the exact DP: the
	// distribution is Algorithm 2's, Band is zero and LowerBound is the
	// makespan.
	Exact bool
}

// SolveCoarse computes a near-optimal distribution of n items at
// granularity g: it solves the Algorithm 2 recurrence restricted to
// grid-aligned cuts (K = ceil(n/g) cells per row instead of n), then
// refines a ±g window around each coarse cut with the exact kernel.
// It requires increasing cost functions, like Algorithm2. Instances
// with n <= 4g fall back to the exact DP.
func SolveCoarse(procs []Processor, n, g int) (CoarseResult, error) {
	return solveCoarse(newTabCache(), procs, n, g, 0)
}

// solveCoarse runs a coarse solve. Only the exact fallback reads tc:
// the grid and refine passes evaluate each processor's costs at just
// the shares they read (gridCosts, the refine windows), O(K + w)
// values per processor instead of a [0, n] table.
func solveCoarse(tc *tabCache, procs []Processor, n, g, workers int) (CoarseResult, error) {
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
	// lb[k]: an optimistic value <= cost[d, i] for every d in
	// I_k = (s_{k-1}, s_k], whose smallest remainder is dLo(k) =
	// s_{k-1} + 1. Each transition consuming j grid segments is charged
	// the smallest share that can realize it ((j-1)·g + 1, or dLo(k)
	// when it empties the remainder), so by induction (costs
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

	gc := newGridCosts(K)
	gc.fill(procs[p-1], gr)
	for k := 0; k <= K; k++ {
		upNext[k] = gc.sv.comm[k] + gc.sv.comp[k]
		choice[p-1][k] = int32(k)
		lbNext[k] = gc.dLo.comm[k] + gc.dLo.comp[k]
	}

	for i := p - 2; i >= 0; i-- {
		gc.fill(procs[i], gr)
		gridRow(gr, gc, upNext, lbNext, up, lb, choice[i])
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

	b, err := refineBand(procs, n, dist, g, workers)
	if err != nil {
		return CoarseResult{}, err
	}
	res := Result{Distribution: b.dist, Makespan: Makespan(procs, b.dist)}
	return CoarseResult{Result: res, LowerBound: lower, Band: certifiedBand(res.Makespan, lower), Granularity: g}, nil
}

// band is a banded refinement's outcome.
type band struct {
	// lo and hi bound each row's window of remainders; row 0 is only
	// ever read at d = n.
	lo, hi []int
	// dist is the refined distribution and value the banded DP's cost
	// at the full problem: the float value of dist's path.
	dist  Distribution
	value float64
	// strict reports that every non-root row's comm+comp is strictly
	// increasing across the shares its window reads.
	strict bool
}

// refineBand re-runs the exact recurrence restricted to a ±w window
// around the prefix remainders of seed. The seed's own trajectory lies
// inside every window, so the refined cost never exceeds the seed's;
// the windows are monotone (rem[i] >= rem[i+1]), so every banded cell
// has a feasible share.
func refineBand(procs []Processor, n int, seed Distribution, w, workers int) (band, error) {
	p := len(procs)
	b := band{lo: make([]int, p), hi: make([]int, p), strict: true}
	lo, hi := b.lo, b.hi
	rem := n
	for i := 0; i < p; i++ {
		lo[i], hi[i] = max(0, rem-w), min(n, rem+w)
		rem -= seed[i]
	}
	lo[0], hi[0] = n, n

	costW := make([][]float64, p)
	choiceW := make([][]int32, p)
	for i := range costW {
		costW[i] = make([]float64, hi[i]-lo[i]+1)
		choiceW[i] = make([]int32, hi[i]-lo[i]+1)
	}

	base := newCostRow(hi[p-1] - lo[p-1] + 1)
	base.fill(procs[p-1], lo[p-1], 1)
	for t := range costW[p-1] {
		costW[p-1][t] = base.comm[t] + base.comp[t]
		choiceW[p-1][t] = int32(lo[p-1] + t)
	}
	// Each banded cell scans up to 2w+1 shares, so a row is worth
	// splitting over the row pool once its up to 2w+1 cells exceed
	// one chunk.
	var rp *rowPool
	if 2*w+1 > minRowChunk {
		rp = newRowPool(workers)
		defer rp.close()
	}
	for i := p - 2; i >= 0; i-- {
		// Row i reads the shares d - d' for d in [lo_i, hi_i] and d' in
		// [lo_{i+1}, hi_{i+1}].
		eOff := max(0, lo[i]-hi[i+1])
		win := newCostRow(hi[i] - lo[i+1] - eOff + 1)
		win.fill(procs[i], eOff, 1)
		b.strict = b.strict && win.strictlyIncreasing()
		rp.run(hi[i]-lo[i], &bandRow{win: win, eOff: eOff,
			next: costW[i+1], loNext: lo[i+1], cost: costW[i], choice: choiceW[i], lo: lo[i]})
	}

	b.dist = make(Distribution, p)
	d := n
	for i := 0; i < p; i++ {
		e := int(choiceW[i][d-lo[i]])
		b.dist[i] = e
		d -= e
	}
	if err := b.dist.Validate(p, n); err != nil {
		return band{}, fmt.Errorf("core: banded refinement produced an invalid distribution: %w", err)
	}
	b.value = costW[0][0]
	return b, nil
}

// certifiedBand is a coarse answer's distance-to-optimal certificate,
// max(0, makespan - lower).
func certifiedBand(makespan, lower float64) float64 {
	band := makespan - lower
	if band < 0 {
		return 0
	}
	return band
}

// costRow holds one processor's comm and comp costs at a progression of
// shares.
type costRow struct{ comm, comp []float64 }

func newCostRow(n int) costRow {
	return costRow{comm: make([]float64, n), comp: make([]float64, n)}
}

// fill sets comm[k] and comp[k] to pr's costs at the share
// start + k·step.
func (c costRow) fill(pr Processor, start, step int) {
	fillCosts(pr.Comm, start, step, c.comm)
	fillCosts(pr.Comp, start, step, c.comp)
}

// strictlyIncreasing reports whether comm[k] + comp[k] rises strictly
// from each entry to the next.
func (c costRow) strictlyIncreasing() bool {
	for k := 1; k < len(c.comm); k++ {
		if c.comm[k]+c.comp[k] <= c.comm[k-1]+c.comp[k-1] {
			return false
		}
	}
	return true
}

// from returns the row's entries from k on.
func (c costRow) from(k int) costRow { return costRow{comm: c.comm[k:], comp: c.comp[k:]} }

// gridCosts holds one processor's costs at the four share progressions
// a grid row reads: at[j] = j·g and eLo[j] = (j-1)·g + 1 for the
// transitions that leave a remainder (j < K), sv[k] = s_k and dLo[k]
// for the one that empties it (k <= K). Every share lies in [0, n].
type gridCosts struct {
	at, eLo, sv, dLo costRow
}

func newGridCosts(K int) *gridCosts {
	return &gridCosts{at: newCostRow(K), eLo: newCostRow(K), sv: newCostRow(K + 1), dLo: newCostRow(K + 1)}
}

// fill evaluates pr at every share the grid rows read. The shares
// s_0 = dLo(0) = 0 and dLo(1) = eLo(1) = 1 sit off their progressions
// and are copied from the entries that already hold them.
func (c *gridCosts) fill(pr Processor, gr coarseGrid) {
	c.at.fill(pr, 0, gr.g)
	c.eLo.from(1).fill(pr, 1, gr.g)
	c.sv.from(1).fill(pr, gr.r, gr.g)
	c.dLo.from(2).fill(pr, gr.r+1, gr.g)
	c.sv.comm[0], c.sv.comp[0] = c.at.comm[0], c.at.comp[0]
	c.dLo.comm[0], c.dLo.comp[0] = c.at.comm[0], c.at.comp[0]
	c.dLo.comm[1], c.dLo.comp[1] = c.eLo.comm[1], c.eLo.comp[1]
}

// bandRow is one banded refinement row for the row pool: its cells
// [a, b] are the remainders [lo+a, lo+b], and win holds the row
// processor's costs at the shares [eOff, eOff+len(win.comm)).
type bandRow struct {
	win        costRow
	eOff       int
	next       []float64
	loNext, lo int
	cost       []float64
	choice     []int32
}

func (r *bandRow) fill(a, b int) {
	refineRow(r.win, r.eOff, r.next, r.loNext, r.cost[a:], r.choice[a:], r.lo+a, r.lo+b)
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

// gridRow fills one row of both grid DPs — up[k], choice[k] and lb[k]
// for every state k — from the next row's upNext and lbNext, reading
// the row processor's costs from c. Consuming j < k segments takes the
// share j·g (optimistically (j-1)·g + 1); consuming all k takes s_k
// (optimistically dLo(k)). Ties keep the fewest segments.
//
// The scan over j stops at a lower-bound break: a candidate with share
// e costs comm[e] + max(comp[e], next) >= comm[e] + comp[e], and that
// sum never decreases in e. Both the upper share e and the optimistic
// share eLo grow with j, so once both sums reach their running minima
// no later j can win either DP (see DESIGN.md §15).
func gridRow(gr coarseGrid, c *gridCosts, upNext, lbNext, up, lb []float64, choice []int32) {
	m0, p0 := c.at.comm[0], c.at.comp[0]
	for k := 0; k <= gr.K; k++ {
		bj := 0
		bm := m0 + maxf(p0, upNext[k])
		lm := m0 + maxf(p0, lbNext[k])
		for j := 1; j <= k; j++ {
			u, l := &c.at, &c.eLo
			if j == k {
				u, l = &c.sv, &c.dLo
			}
			cm, cp, lcm, lcp := u.comm[j], u.comp[j], l.comm[j], l.comp[j]
			if cm+cp >= bm && lcm+lcp >= lm {
				break
			}
			if m := cm + maxf(cp, upNext[k-j]); m < bm {
				bj, bm = j, m
			}
			if m := lcm + maxf(lcp, lbNext[k-j]); m < lm {
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
// len(next) - 1] and the row processor's costs only on the window of
// shares win holds from eOff on. The share range for each d is clipped
// so d-e stays inside the next row's window; windows produced by
// solveCoarse are monotone, which keeps that range non-empty. A banded
// next row is not monotone at its window edges, so rowRange's crossover
// search and descending break do not apply; the ascending scan
// (refineCell) stops instead at the lower-bound break of gridRow. Ties
// keep the largest share. That is Algorithm 2's rule whenever no share
// above a cell's crossover ties its minimum — in particular when
// comm+comp is strictly increasing on the row's window, which the
// certified solve checks (certify.go).
func refineRow(win costRow, eOff int, next []float64, loNext int, cost []float64, choice []int32, lo, hi int) {
	hiNext := loNext + len(next) - 1
	for d := lo; d <= hi; d++ {
		eMin := d - hiNext
		if eMin < 0 {
			eMin = 0
		}
		eMax := d - loNext
		a, b := eMin-eOff, eMax-eOff+1
		t, min := refineCell(win.comm[a:b], win.comp[a:b], next[:eMax-eMin+1])
		cost[d-lo] = min
		choice[d-lo] = int32(eMin + t)
	}
}

// refineCell scans one banded cell's shares in ascending order, four
// at a time: share t costs comm[t] + max(comp[t], rests[L-1-t]) with
// L = len(rests), and comm and comp hold at least L entries. It
// returns the largest minimizing share and its cost, stopping at the
// first share whose lower bound comm[t] + comp[t] exceeds the minimum:
// no larger share can reach it. A bound equal to the minimum does not
// stop the scan, since a later share may still tie.
func refineCell(comm, comp, rests []float64) (int, float64) {
	L := len(rests)
	comm, comp = comm[:L], comp[:L]
	sol, min := 0, comm[0]+maxf(comp[0], rests[L-1])
	t := 1
	for ; t+3 < L; t += 4 {
		if comm[t]+comp[t] > min {
			return sol, min
		}
		if m := comm[t] + maxf(comp[t], rests[L-1-t]); m <= min {
			sol, min = t, m
		}
		if comm[t+1]+comp[t+1] > min {
			return sol, min
		}
		if m := comm[t+1] + maxf(comp[t+1], rests[L-2-t]); m <= min {
			sol, min = t+1, m
		}
		if comm[t+2]+comp[t+2] > min {
			return sol, min
		}
		if m := comm[t+2] + maxf(comp[t+2], rests[L-3-t]); m <= min {
			sol, min = t+2, m
		}
		if comm[t+3]+comp[t+3] > min {
			return sol, min
		}
		if m := comm[t+3] + maxf(comp[t+3], rests[L-4-t]); m <= min {
			sol, min = t+3, m
		}
	}
	for ; t < L && comm[t]+comp[t] <= min; t++ {
		if m := comm[t] + maxf(comp[t], rests[L-1-t]); m <= min {
			sol, min = t, m
		}
	}
	return sol, min
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
