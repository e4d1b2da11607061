package core

import (
	"fmt"

	"repro/internal/cost"
)

// This file implements the incremental solver: a Plan retains the full
// per-processor DP rows produced by the Algorithm 2 recurrence, so that
// any suffix subproblem — "distribute d items over processors Pi..Pp" —
// is answered by an O(p) walk of the choice rows instead of a fresh
// O(p·n²) solve.
//
// The key structural fact (Section 3.2 of the paper): row i of the DP
// depends only on the processors at positions i..p-1 and on d. Rows are
// therefore computed from i = p-1 (the root, served last) down to
// i = 0, and a crash of the processor at service position i invalidates
// exactly the rows 0..i — the rows computed last — while rows i+1..p-1
// remain valid verbatim for the surviving suffix. Plan.Resolve exploits
// this: when the survivors share a cost-fingerprint suffix with the
// plan's platform, only the prefix rows are recomputed (none at all
// when the first-served processor is the one that crashed).

// planRow is one retained DP row: cost[d] is the optimal makespan of d
// items on the row's processor suffix, choice[d] the share the suffix's
// first processor takes. A row is immutable once filled, so derived
// plans share suffix rows with their source as they are, and the
// garbage collector frees a row when no plan references it.
type planRow struct {
	cost   []float64
	choice []int32
}

// Plan is a retained solution of the Algorithm 2 dynamic program for a
// platform and item count, answering suffix subproblems and warm-started
// re-solves without repeating work. Build one with SolvePlan or through
// an Engine. A Plan never changes once built: Lookup and Resolve only
// read it, so they are safe for concurrent use.
type Plan struct {
	procs []Processor
	fps   []string // per-processor cost fingerprint; "" if opaque
	n     int      // rows answer any d in [0, n]
	rows  []planRow
}

// Items returns the item count the plan was solved for; Lookup and
// warm-started Resolve answer any count up to it.
func (pl *Plan) Items() int { return pl.n }

// Size returns the number of processors in the plan's platform.
func (pl *Plan) Size() int { return len(pl.procs) }

// SolvePlan runs the Algorithm 2 dynamic program over increasing cost
// functions and retains every DP row. The distribution reachable via
// Lookup(n, 0) is bit-identical to Algorithm2's: both run solveRows.
func SolvePlan(procs []Processor, n int) (*Plan, error) {
	return solveRows(procs, fingerprints(procs), n, 0, true)
}

// planParallelThreshold is the item count from which solveRows fills
// rows with a worker pool; below it the fan-out costs more than the
// row computation, so small solves stay on the calling goroutine.
const planParallelThreshold = 1 << 15

// baseWindow is the number of shares at a time for which the base row
// evaluates the root's costs.
const baseWindow = 1024

// solveRows runs every exact Algorithm 2 solve. It fills the base row,
// then every other row with rowRange, on a pool of workers (<= 0:
// GOMAXPROCS) once n reaches planParallelThreshold. fps are the
// processors' fingerprints, kept for Resolve's suffix matching (nil
// without retain). With retain the plan keeps every cost row for Lookup
// and Resolve; without, each cost row is dropped as soon as the row
// before it is filled and only the choice rows survive — enough for
// Lookup(n, 0).
func solveRows(procs []Processor, fps []string, n, workers int, retain bool) (*Plan, error) {
	if err := validateDPInput(procs, n); err != nil {
		return nil, err
	}
	p := len(procs)
	pl := &Plan{
		procs: append([]Processor(nil), procs...),
		fps:   fps,
		n:     n,
		rows:  make([]planRow, p),
	}
	// Base row: the last processor takes everything that remains. Its
	// costs are evaluated a window at a time, never as n-wide tables.
	base := newPlanRow(n)
	var win costRow
	for lo := 0; lo <= n; lo += baseWindow {
		win.resize(min(baseWindow, n+1-lo))
		win.fill(procs[p-1], lo)
		for k := range win.comm {
			base.cost[lo+k] = win.comm[k] + win.comp[k]
			base.choice[lo+k] = int32(lo + k)
		}
	}
	pl.rows[p-1] = base
	pl.fillRows(p-1, workers, retain)
	return pl, nil
}

// fillRows computes rows top-1 down to 0 at width pl.n from the
// filled row top. Row i reads its processor's costs only up to its
// crossover at d = pl.n (see rowRange), so it evaluates them on
// [0, emax_i(pl.n)] alone, into two buffers every row reuses. Without
// retain, each consumed cost row becomes the buffer of the row after
// next, so only two cost rows are ever live.
func (pl *Plan) fillRows(top, workers int, retain bool) {
	if top == 0 {
		return
	}
	var rp *rowPool
	if pl.n >= planParallelThreshold {
		rp = newRowPool(workers)
		defer rp.close()
	}
	var tabs costRow    // the row processor's costs up to its crossover
	var spare []float64 // without retain: the last consumed cost row
	for i := top - 1; i >= 0; i-- {
		next := pl.rows[i+1].cost
		tabs.resize(crossover(pl.procs[i].Comp, next, pl.n) + 1)
		tabs.fill(pl.procs[i], 0)
		row := planRow{cost: spare, choice: make([]int32, pl.n+1)}
		if row.cost == nil {
			row.cost = make([]float64, pl.n+1)
		}
		rp.run(pl.n, &exactRow{comm: tabs.comm, comp: tabs.comp, next: next, cost: row.cost, choice: row.choice})
		pl.rows[i] = row
		if !retain {
			spare, pl.rows[i+1].cost = next, nil
		}
	}
}

// crossover returns the crossover of the cell d = n of a row whose
// processor computes with comp over the next row's costs next: the
// smallest e in [0, n) with comp(e) >= next[n-e], or n when there is
// none. It is rowRange's seed search at d = n, evaluating comp one
// share at a time; fillCosts gives each share the bits of the full
// table, so the answer is the kernel's own.
func crossover(comp cost.Function, next []float64, n int) int {
	var v [1]float64
	l, h := 0, n
	for l < h {
		mid := int(uint(l+h) >> 1)
		fillCosts(comp, mid, v[:])
		if v[0] >= next[n-mid] {
			h = mid
		} else {
			l = mid + 1
		}
	}
	return l
}

// Lookup answers the suffix subproblem "distribute d items over
// processors i..p-1" by walking the retained choice rows: O(p) time,
// no allocation beyond the returned distribution. The result is
// bit-identical to a fresh Algorithm2 solve on procs[i:] with d items.
func (pl *Plan) Lookup(d, i int) (Result, error) {
	p := len(pl.procs)
	if i < 0 || i >= p {
		return Result{}, fmt.Errorf("core: plan lookup position %d outside [0, %d)", i, p)
	}
	if d < 0 || d > pl.n {
		return Result{}, fmt.Errorf("core: plan lookup item count %d outside [0, %d]", d, pl.n)
	}
	procs := pl.procs[i:]
	dist := make(Distribution, p-i)
	rem := d
	for j := i; j < p; j++ {
		e := int(pl.rows[j].choice[rem])
		dist[j-i] = e
		rem -= e
	}
	return Result{Distribution: dist, Makespan: Makespan(procs, dist)}, nil
}

// Resolve computes an optimal distribution of remaining items over the
// survivors, reusing every DP row the crash left valid. When the
// survivors' cost fingerprints match a suffix of the plan's platform,
// only the prefix rows are recomputed (none when the survivors are a
// pure suffix — the first-served processor crashed); otherwise it falls
// back to a fresh solve. Either way the distribution is bit-identical
// to Algorithm2(survivors, remaining).
func (pl *Plan) Resolve(remaining int, survivors []Processor) (Result, error) {
	d, err := pl.resolve(remaining, survivors, fingerprints(survivors), 0)
	if err != nil {
		return Result{}, err
	}
	return d.Lookup(remaining, 0)
}

// resolve is Resolve returning the derived plan, so the Engine can
// retain it for future warm starts; sfps are the survivors'
// fingerprints. The body only reads pl: the Engine runs it without its
// mutex, concurrently with other resolves from the same plan.
func (pl *Plan) resolve(remaining int, survivors []Processor, sfps []string, workers int) (*Plan, error) {
	if err := validateDPInput(survivors, remaining); err != nil {
		return nil, err
	}
	if remaining > pl.n {
		// The retained rows are too narrow; nothing reusable.
		return solveRows(survivors, sfps, remaining, workers, true)
	}
	p, m := len(pl.procs), len(survivors)
	// Longest common fingerprint suffix. Opaque functions ("") never
	// match: closures cannot be proven equal, so their rows are never
	// reused.
	t := commonFPSuffix(pl.fps, sfps)
	if t == 0 {
		return solveRows(survivors, sfps, remaining, workers, true)
	}

	d := &Plan{
		procs: append([]Processor(nil), survivors...),
		fps:   sfps,
		rows:  make([]planRow, m),
	}
	// Share the valid suffix rows verbatim.
	copy(d.rows[m-t:], pl.rows[p-t:])
	if t == m {
		// Pure suffix: every row survives at full width. The derived
		// plan inherits the whole warm-start range.
		d.n = pl.n
		return d, nil
	}
	// Partial reuse: recompute the invalidated prefix rows, at the
	// width actually needed now.
	d.n = remaining
	d.fillRows(m-t, workers, true)
	return d, nil
}

// fingerprints computes the per-processor cost fingerprint used for
// suffix matching and cache keys: comm and comp fingerprints joined, or
// "" when either function is opaque.
func fingerprints(procs []Processor) []string {
	fps := make([]string, len(procs))
	for i, pr := range procs {
		cm, ok1 := cost.Fingerprint(pr.Comm)
		cp, ok2 := cost.Fingerprint(pr.Comp)
		if ok1 && ok2 {
			fps[i] = cm + "|" + cp
		}
	}
	return fps
}

// newPlanRow allocates a row covering shares [0, n].
func newPlanRow(n int) planRow {
	return planRow{cost: make([]float64, n+1), choice: make([]int32, n+1)}
}
