package core

import (
	"math"

	"repro/internal/cost"
)

// This file fills a plan's cells on demand. A Lookup that meets a
// block of choices not yet published opens a fault: the fault computes
// that block, and for it the costs of the blocks of the next row that
// the kernel reads, and for those the blocks they read, down to the
// root. Only the cone of cells an answer reads is computed, a block of
// choiceBlock cells at a time.
//
// Read window (DESIGN.md §10). Let emax(d) be the crossover of cell d,
// the smallest e < d with comp[e] >= next[d-e] (or d), and m0(d) =
// comm[emax] + max(comp[emax], next[d-emax]) the cost of that share.
// The kernel's answer for d is the largest share of least cost in
// [0, emax(d)], and that least cost is at most m0(d). Every row is
// nondecreasing, and emax(d) and d - emax(d) are too, so m0 is. Now
// take a block [lo, hi] and let K be the smallest index with
// next[K] >= m0(hi). For any e0 <= lo-K+1 and any share e < e0,
// comm[e] + next[d-e] >= next[d-e] >= next[K] >= m0(hi) >= m0(d): no
// share below e0 beats the cell's least cost, and on a tie the larger
// share wins. So the kernel over the shares [e0, emax(hi)] and the
// next row's costs on [lo-emax(lo), hi-e0] answers every cell of the
// block exactly as over the whole row. Past K the kernel only
// compares a next-row cost with a running minimum of at most m0(hi)
// and keeps no sum built from it, so the fault passes +Inf there and
// computes the next row only up to max(K-1, hi-emax(hi)+1), the last
// index the crossover steps read. It runs the unchanged rowRange on
// those windows, shifted so that share e0 is its share 0.
//
// Seeds. The crossover emax(lo) is found by a walk from a seed:
// comp[e] >= next[lo-e] is monotone in e, so any seed reaches the
// same emax, and the seed only decides how many cells the walk reads.
// A published neighbouring block gives a lower bound (the choice of
// the cell next to lo, less the block's width when it lies above);
// failing that, the rational crossover of Theorem 1 on the costs'
// slopes (crossoverFractions). From emax(lo) each cell's crossover
// advances by at most one, as in the kernel.
//
// Costs stay within the fault. A block the fault fills takes its costs
// from the kernel; a block already published has them rebuilt from
// its choices with the kernel's expression, over that block alone.
// Processor costs come from fillCosts windows, which carry the bits of
// the full table.

// fault computes the cells one answer reads, keeping their costs until
// it returns. A fault belongs to one goroutine; what it publishes is
// immutable, so faults that race on one plan compute equal bits.
type fault struct {
	pl    *Plan
	cost  []window  // per row: its costs, the root's last
	comm  []window  // per row: its processor's comm, by share
	comp  []window  // per row: its processor's comp, by share
	seed  []float64 // per row: the rational crossover fraction
	lastK []walkEnd // per row: where the last walk to K ended
	cells int       // DP cells computed: kernel, rebuilt and root cells

	next []float64 // the kernel's next row, shifted
	cur  []float64 // the kernel's cost row, shifted
	ch   []int32   // the kernel's choice row, shifted
}

// walkEnd is where the walk to K of a row's fill of block block
// stopped.
type walkEnd struct{ block, k int }

func (pl *Plan) newFault() *fault {
	p := len(pl.procs)
	return &fault{
		pl:    pl,
		cost:  make([]window, p),
		comm:  make([]window, p),
		comp:  make([]window, p),
		seed:  crossoverFractions(pl.procs, pl.n),
		lastK: make([]walkEnd, p),
	}
}

// window holds values of a row — costs by cell or processor costs by
// share — on whole blocks of choiceBlock indices from block lo on.
type window struct {
	lo   int
	val  []float64 // the values of indices lo*choiceBlock onwards
	done []bool    // per block from lo: val holds its values
}

// has reports whether the window holds block b.
func (w *window) has(b int) bool {
	b -= w.lo
	return b >= 0 && b < len(w.done) && w.done[b]
}

// block marks block b held and returns its slots for the caller to
// fill, growing the window, in a row of blocks blocks, to hold it. A
// window at least doubles when it grows, so a walk across a row
// reallocates it O(log) times.
func (w *window) block(b, blocks int) []float64 {
	if b < w.lo || b >= w.lo+len(w.done) {
		lo, hi := b, b
		if size := len(w.done); size > 0 {
			lo, hi = min(w.lo, b), max(w.lo+size-1, b)
			if lo < w.lo {
				lo = max(min(lo, hi-2*size+1), 0)
			} else {
				hi = min(max(hi, lo+2*size-1), blocks-1)
			}
		}
		val := make([]float64, (hi-lo+1)*choiceBlock)
		done := make([]bool, hi-lo+1)
		if len(w.done) > 0 {
			copy(val[(w.lo-lo)*choiceBlock:], w.val)
			copy(done[w.lo-lo:], w.done)
		}
		w.lo, w.val, w.done = lo, val, done
	}
	w.done[b-w.lo] = true
	return w.val[(b-w.lo)*choiceBlock:][:choiceBlock]
}

// span returns the values at the indices [a, z], which the window
// holds.
func (w *window) span(a, z int) []float64 {
	return w.val[a-w.lo*choiceBlock : z+1-w.lo*choiceBlock]
}

// width returns the last cell of row i. The root is as wide as the row
// before it, the widest of the plan.
func (pl *Plan) width(i int) int {
	if i < len(pl.rows) {
		return pl.rows[i].n
	}
	if len(pl.rows) > 0 {
		return pl.rows[len(pl.rows)-1].n
	}
	return pl.n
}

// blocks returns the number of blocks of row i.
func (f *fault) blocks(i int) int { return f.pl.width(i)/choiceBlock + 1 }

// ensure computes the costs of block b of row i, filling the block
// first when it is not published.
func (f *fault) ensure(i, b int) {
	if f.cost[i].has(b) {
		return
	}
	lo := b * choiceBlock
	hi := min(lo+choiceBlock-1, f.pl.width(i))
	out := f.cost[i].block(b, f.blocks(i))[:hi-lo+1]
	switch {
	case i == len(f.pl.rows):
		comm, comp := f.tabs(i, lo, hi)
		for k := range out {
			out[k] = comm[k] + comp[k]
		}
	case f.pl.rows[i].filled(b):
		f.rebuild(i, b, lo, out)
	default:
		f.fill(i, b, lo, hi, out)
	}
	f.cells += hi - lo + 1
}

// costs returns row i's costs on the cells [a, z].
func (f *fault) costs(i, a, z int) []float64 {
	for b := a / choiceBlock; b <= z/choiceBlock; b++ {
		f.ensure(i, b)
	}
	return f.cost[i].span(a, z)
}

// costAt returns row i's cost at cell k.
func (f *fault) costAt(i, k int) float64 {
	if !f.cost[i].has(k / choiceBlock) {
		f.ensure(i, k/choiceBlock)
	}
	return f.cost[i].span(k, k)[0]
}

// tabs returns processor i's comm and comp on the shares [a, z], at
// most its row's width.
func (f *fault) tabs(i, a, z int) (comm, comp []float64) {
	for b := a / choiceBlock; b <= z/choiceBlock; b++ {
		if !f.comm[i].has(b) {
			fillCosts(f.pl.procs[i].Comm, b*choiceBlock, f.comm[i].block(b, f.blocks(i)))
			fillCosts(f.pl.procs[i].Comp, b*choiceBlock, f.comp[i].block(b, f.blocks(i)))
		}
	}
	return f.comm[i].span(a, z), f.comp[i].span(a, z)
}

// rebuild computes the costs of published block b of row i, whose
// first cell is lo, from its choices with the kernel's expression:
// cost[d] = comm(s) + max(comp(s), next[d-s]) with s = choice[d].
func (f *fault) rebuild(i, b, lo int, out []float64) {
	var ch [choiceBlock]int32
	blk := ch[:len(out)]
	f.pl.rows[i].decodeBlock(b, blk)
	smin, smax := blk[0], blk[0]
	jlo, jhi := lo-int(blk[0]), lo-int(blk[0])
	for k, s := range blk {
		smin, smax = min(smin, s), max(smax, s)
		jlo, jhi = min(jlo, lo+k-int(s)), max(jhi, lo+k-int(s))
	}
	next := f.costs(i+1, jlo, jhi)
	comm, comp := f.tabs(i, int(smin), int(smax))
	for k, s := range blk {
		e := s - smin
		out[k] = comm[e] + maxf(comp[e], next[lo+k-int(s)-jlo])
	}
}

// fill computes block b of row i, the cells [lo, hi], with the kernel
// over the read window of the block (see the top of this file),
// publishes its choices and writes its costs to out.
func (f *fault) fill(i, b, lo, hi int, out []float64) {
	row := f.pl.rows[i]
	seed := int(f.seed[i]*float64(lo) + 0.5)
	if c, ok := row.at(max(lo-1, 0)); ok && lo > 0 {
		seed = int(c)
	} else if c, ok := row.at(min(hi+1, row.n)); ok && hi < row.n {
		seed = int(c) - (hi + 1 - lo)
	}
	elo := f.emax(i, lo, seed)
	e := elo
	for d := lo + 1; d <= hi; d++ {
		if e < d && f.compAt(i, e) < f.costAt(i+1, d-e) {
			e++
		}
	}
	comm, comp := f.tabs(i, e, e)
	m0 := comm[0] + maxf(comp[0], f.costAt(i+1, hi-e))
	// m0 rises with hi, so K does: a walk resumes where the fill of
	// the block before it in this row stopped.
	k := hi - e
	if f.lastK[i].block == b-1 && b > 0 {
		k = max(k, f.lastK[i].k)
	}
	k = f.firstAtLeast(i+1, k, hi, m0)
	f.lastK[i] = walkEnd{b, k}
	e0 := max(0, min(elo, lo-k+1))

	// Shifted by e0 shares and lo-elo cells: the kernel's cell lo is
	// elo-e0, its share 0 is e0 and its next row starts at lo-elo. The
	// next row's costs are exact up to the last index the crossovers
	// read and up to K-1, and +Inf beyond: past K every cost is at
	// least m0(hi), so the kernel takes the same branches on either
	// and keeps no cost it read there.
	slo, shi := elo-e0, elo-e0+hi-lo
	if cap(f.cur) < shi+1 {
		size := max(shi+1, 2*cap(f.cur))
		f.cur, f.ch, f.next = make([]float64, size), make([]int32, size), make([]float64, size)
	}
	next := f.next[:shi+1]
	exact := copy(next, f.costs(i+1, lo-elo, min(max(k-1, hi-e+1), hi-e0)))
	for j := exact; j < len(next); j++ {
		next[j] = math.Inf(1)
	}
	comm, comp = f.tabs(i, e0, e)
	rowRange(comm, comp, next, f.cur[:shi+1], f.ch[:shi+1], slo, shi)
	var ch [choiceBlock]int32
	blk := ch[:hi-lo+1]
	for k := range blk {
		blk[k] = f.ch[slo+k] + int32(e0)
		out[k] = f.cur[slo+k]
	}
	row.publish(b, blk)
}

// firstAtLeast returns the smallest index in [k, z] at which row i's
// cost is at least v, or z+1 when there is none, walking up from k a
// block at a time.
func (f *fault) firstAtLeast(i, k, z int, v float64) int {
	for k <= z {
		blk := f.costs(i, k, min(z, k|(choiceBlock-1)))
		for _, c := range blk {
			if c >= v {
				return k
			}
			k++
		}
	}
	return k
}

// compAt returns processor i's computation cost at share e.
func (f *fault) compAt(i, e int) float64 {
	if !f.comp[i].has(e / choiceBlock) {
		f.tabs(i, e, e)
	}
	return f.comp[i].span(e, e)[0]
}

// emax walks from seed to the crossover of cell d of row i: the
// smallest e < d with comp(e) >= next[d-e], or d when there is none.
func (f *fault) emax(i, d, seed int) int {
	e := min(max(seed, 0), d)
	above := func(e int) bool { return f.compAt(i, e) >= f.costAt(i+1, d-e) }
	if e == d || above(e) {
		for e > 0 && above(e-1) {
			e--
		}
	} else {
		for e < d && !above(e) {
			e++
		}
	}
	return e
}

// crossoverFractions returns, for each row i < p-1, the share of d
// items at which processor i's computation time meets the rational
// cost of the processors after it: r_i = c/(beta_i+c), where c is the
// rational makespan per item of procs[i+1:]. That makespan follows
// Theorems 1 and 2 from the root up: the root's alpha+beta, then, per
// processor, the cheaper of leaving it out (c) and keeping it,
// (alpha_i+beta_i)·r_i. The alphas and betas are the costs' slopes at
// n items, exact on linear costs. The fractions only seed the walks
// to a crossover, so any finite value is safe.
func crossoverFractions(procs []Processor, n int) []float64 {
	x := max(n, 1)
	slope := func(f cost.Function) float64 { return f.Eval(x) / float64(x) }
	p := len(procs)
	r := make([]float64, p-1)
	c := slope(procs[p-1].Comm) + slope(procs[p-1].Comp)
	for i := p - 2; i >= 0; i-- {
		a, b := slope(procs[i].Comm), slope(procs[i].Comp)
		if fr := c / (b + c); fr >= 0 && fr <= 1 {
			r[i] = fr
		}
		c = min(c, (a+b)*r[i])
	}
	return r
}
