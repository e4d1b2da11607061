package core

import (
	"sync"
	"sync/atomic"
)

// rowFanOutThreshold is the item count from which fullTable spreads
// each row over several goroutines; below it the fan-out costs more
// than the row computation, so small solves stay on the calling
// goroutine.
const rowFanOutThreshold = 1 << 15

// minRowChunk keeps chunks big enough that the per-chunk binary-search
// seed and the atomic claim are amortized; rowChunksPerWorker trades
// tail latency (stragglers finish early chunks while others run) for
// claim traffic.
const (
	minRowChunk        = 256
	rowChunksPerWorker = 8
)

// fullTable fills Algorithm 2's full table for procs at width n and
// returns the plan holding every row's packed choices; it keeps no
// costs. Two cost rows alternate: the root's costs, then each row's,
// computed by rowRange from the one before. Row i reads its
// processor's costs only up to its crossover at d = n (see rowRange),
// so it evaluates them on [0, emax_i(n)] alone.
//
// From rowFanOutThreshold items, each row is split into chunks of
// whole choice blocks that up to workers goroutines claim from an
// atomic cursor and join once the row is done. Within a row, cells
// only read the previous row, so any split is bit-identical to the
// sequential recurrence. Each chunk publishes its blocks of choices
// as soon as it is filled.
func fullTable(procs []Processor, n, workers int) (*Plan, error) {
	if err := validateDPInput(procs, n); err != nil {
		return nil, err
	}
	pl := newPlan(procs, nil, n, nil)
	// The root, served last, takes whatever remains.
	next, cur := make([]float64, n+1), make([]float64, n+1)
	root := procs[len(procs)-1]
	fillCosts(root.Comm, 0, next)
	fillCosts(root.Comp, 0, cur)
	for d := range next {
		next[d] += cur[d]
	}

	chunk, fan := n+1, 1 // one chunk, filled by the calling goroutine
	if workers > 1 && n >= rowFanOutThreshold {
		chunk = (n + workers*rowChunksPerWorker) / (workers * rowChunksPerWorker)
		chunk = (max(chunk, minRowChunk) + choiceBlock - 1) / choiceBlock * choiceBlock
		fan = workers
	}
	choice := make([]int32, n+1)
	var tabs costRow // the row processor's costs up to its crossover
	for i := len(pl.rows) - 1; i >= 0; i-- {
		tabs.resize(crossover(procs[i].Comp, next, n) + 1)
		tabs.fill(procs[i], 0)
		row := pl.rows[i]
		var cursor atomic.Int64
		claim := func() {
			for {
				lo := int(cursor.Add(1)-1) * chunk
				if lo > n {
					return
				}
				hi := min(lo+chunk-1, n)
				rowRange(tabs.comm, tabs.comp, next, cur, choice, lo, hi)
				for b := lo / choiceBlock; b*choiceBlock <= hi; b++ {
					blo, bhi := row.blockCells(b)
					row.publish(b, choice[blo:bhi+1])
				}
			}
		}
		var wg sync.WaitGroup
		wg.Add(fan - 1)
		for range fan - 1 {
			go func() {
				defer wg.Done()
				claim()
			}()
		}
		claim()
		wg.Wait()
		next, cur = cur, next
	}
	return pl, nil
}

// firstScanBlock is the width of rowRange's first bounded block below
// the crossover; each skipped block doubles the next one.
const firstScanBlock = 8

// rowRange fills cost[d] and choice[d] for d in [lo, hi] using the
// Algorithm 2 recurrence (crossover search + early break). It only
// reads comm, comp and costNext, so disjoint ranges may run
// concurrently. It is the one row kernel of every exact solve —
// Algorithm2 fills whole rows with it through fullTable, and a
// plan's Lookup fills blocks with it on demand
// (demand.go) — which is what keeps their results bit-identical to
// each other.
//
// The crossover emax(d) — the smallest e with comp[e] >= costNext[d-e]
// (or d when no such e exists) — is monotone in d, and moreover
// advances by at most one per cell: if comp[e] >= costNext[d-1-e] then
// comp[e+1] >= costNext[d-(e+1)]. So only the first cell of a range
// pays a binary search; every following cell re-seeds emax from its
// left neighbor with a single comparison, replacing O(log n) scattered
// probes per cell with an amortized O(1) sequential access. The seeded
// value is the same lower bound the binary search would return, so the
// kernel stays bit-identical to the paper's per-cell search (kept as
// the test-only reference in dp_ref_test.go).
//
// A cell reads comm and comp only at shares up to its crossover, and
// emax(d) <= emax(n) for every d <= n, so comm and comp need only hold
// the shares [0, emax(n)] of the row's last cell n: fullTable tabulates
// no more, and a fault runs the kernel on a window of shares and cells
// shifted to start at 0. The kernel bounds its reads by len(comp)-1,
// both in the hoisted slices and in the seed search; a table shorter
// than that invariant asks for makes a hoisted slice panic, never a
// wrong cell.
//
// Below the crossover comp[e] < costNext[d-e] (both rows are
// nondecreasing), so the recurrence's max is exactly costNext[d-e] and
// the descending scan never loads comp. It evaluates one 4-share
// block, updating on < in the same order as a per-share scan, and
// checks the early break once, on the block's last rest: every later
// share has m >= rest' >= rest >= min (comm >= 0, rounding monotone),
// so it can never be strictly below min.
//
// Past that block the scan walks descending blocks [a, e], the first
// firstScanBlock shares wide, and skips a block whose lower bound
// comm[a] + costNext[d-e] is already >= min: every e' in [a, e] has
// comm[e'] >= comm[a] and costNext[d-e'] >= costNext[d-e], and
// rounding to nearest is monotone, so fl(comm[e'] + costNext[d-e'])
// >= min and no share in the block is strictly below min — nor can it
// become so, since min only falls. Each skip doubles the next block,
// so a cell whose minimum sits near the crossover skips the rest of a
// long scan in a few bound checks; a skip whose costNext[d-e] alone
// reaches min is the early break. A block that is not skipped is
// scanned share by share with the per-share break. The bound only
// decides which shares are evaluated and never enters a cost, and
// updates stay strictly < in descending order, so the answer and its
// tie rule are exactly the per-share scan's. The first block stays
// unbounded because short scans pay more for the bound's branches
// than they save.
func rowRange(comm, comp, costNext, costCur []float64, choiceRow []int32, lo, hi int) {
	if lo > hi {
		return
	}
	// Hoist the bounds checks: every index below is within [0, hi],
	// and every share within [0, top], the row's last crossover.
	top := min(hi, len(comp)-1)
	comm = comm[: top+1 : top+1]
	comp = comp[: top+1 : top+1]
	costNext = costNext[: hi+1 : hi+1]
	costCur = costCur[: hi+1 : hi+1]
	choiceRow = choiceRow[: hi+1 : hi+1]

	// Seed emax at d = lo with the usual binary search, over the
	// shares the tables hold: emax(lo) <= top.
	l, h := 0, min(lo, top)
	for l < h {
		mid := int(uint(l+h) >> 1)
		if comp[mid] >= costNext[lo-mid] {
			h = mid
		} else {
			l = mid + 1
		}
	}
	emax := l

	for d := lo; d <= hi; d++ {
		if d > lo && emax < d && comp[emax] < costNext[d-emax] {
			// The crossover moved: it advances by exactly one.
			emax++
		}
		// For e >= emax the objective is Tcomm+Tcomp, both increasing,
		// so emax is the best candidate there.
		sol := emax
		min := comm[sol] + maxf(comp[sol], costNext[d-sol])
		// Descending scan over e < emax, where the max is realized by
		// costNext[d-e]: one 4-share block, then bounded blocks.
		e := emax - 1
		if e >= 3 {
			r0 := costNext[d-e]
			if m := comm[e] + r0; m < min {
				sol, min = e, m
			}
			r1 := costNext[d-e+1]
			if m := comm[e-1] + r1; m < min {
				sol, min = e-1, m
			}
			r2 := costNext[d-e+2]
			if m := comm[e-2] + r2; m < min {
				sol, min = e-2, m
			}
			r3 := costNext[d-e+3]
			if m := comm[e-3] + r3; m < min {
				sol, min = e-3, m
			}
			e -= 4
			if r3 >= min {
				e = -1 // no later share can win
			}
		}
		for size := firstScanBlock; e >= 0; {
			a := max(e-size+1, 0)
			rest := costNext[d-e]
			if comm[a]+rest >= min {
				// No share in [a, e] is strictly below min.
				if rest >= min {
					break // nor any later one
				}
				e = a - 1
				size *= 2
				continue
			}
			for ; e >= a; e-- {
				rest := costNext[d-e]
				if m := comm[e] + rest; m < min {
					sol, min = e, m
				} else if rest >= min {
					e = -1
					break
				}
			}
		}
		choiceRow[d] = int32(sol)
		costCur[d] = min
	}
}
