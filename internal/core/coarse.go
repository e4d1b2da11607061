package core

import "fmt"

// This file holds the banded refinement the certified solve runs
// (certify.go, DESIGN.md §17): the exact Algorithm 2 recurrence
// restricted to a window of ±w items around a seed distribution's
// prefix remainders ("items left for processors i..p"). A window of
// p·(2w+1) cells replaces the exact DP's p·(n+1), and each processor's
// costs are evaluated only at the shares its window reads.

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
func refineBand(procs []Processor, n int, seed Distribution, w int) (band, error) {
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
	base.fill(procs[p-1], lo[p-1])
	for t := range costW[p-1] {
		costW[p-1][t] = base.comm[t] + base.comp[t]
		choiceW[p-1][t] = int32(lo[p-1] + t)
	}
	for i := p - 2; i >= 0; i-- {
		// Row i reads the shares d - d' for d in [lo_i, hi_i] and d' in
		// [lo_{i+1}, hi_{i+1}].
		eOff := max(0, lo[i]-hi[i+1])
		win := newCostRow(hi[i] - lo[i+1] - eOff + 1)
		win.fill(procs[i], eOff)
		b.strict = b.strict && win.strictlyIncreasing()
		refineRow(win, eOff, costW[i+1], lo[i+1], costW[i], choiceW[i], lo[i], hi[i])
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

// costRow holds one processor's comm and comp costs at a window of
// consecutive shares.
type costRow struct{ comm, comp []float64 }

func newCostRow(n int) costRow {
	return costRow{comm: make([]float64, n), comp: make([]float64, n)}
}

// resize makes c hold n shares, reusing its buffers when they are
// large enough.
func (c *costRow) resize(n int) {
	if cap(c.comm) < n {
		*c = newCostRow(n)
	}
	c.comm, c.comp = c.comm[:n], c.comp[:n]
}

// fill sets comm[k] and comp[k] to pr's costs at the share start + k.
func (c costRow) fill(pr Processor, start int) {
	fillCosts(pr.Comm, start, c.comm)
	fillCosts(pr.Comp, start, c.comp)
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

// refineRow fills one banded DP row: cost[d-lo] and choice[d-lo] for d
// in [lo, hi], where the next row is only known on [loNext, loNext +
// len(next) - 1] and the row processor's costs only on the window of
// shares win holds from eOff on. The share range for each d is clipped
// so d-e stays inside the next row's window; refineBand's windows are
// monotone, which keeps that range non-empty. A banded next row is not
// monotone at its window edges, so rowRange's crossover search and
// descending break do not apply; the ascending scan (refineCell) stops
// instead at a lower-bound break: share e costs at least comm[e] +
// comp[e], which never decreases in e. Ties keep the largest share. That is Algorithm 2's rule whenever no share
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
