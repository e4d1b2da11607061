package core

import (
	"fmt"
	"sync"

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
	return solveRows(newTabCache(), procs, n, 0, true)
}

// planParallelThreshold is the item count from which solveRows fills
// rows with a worker pool; below it the fan-out costs more than the
// row computation, so small solves stay on the calling goroutine.
const planParallelThreshold = 1 << 15

// solveRows is the one exact Algorithm 2 driver. It tabulates each
// processor's costs through tc, fills the base row, then every other
// row with rowRange, on a pool of workers (<= 0: GOMAXPROCS) once n
// reaches planParallelThreshold. With retain the plan keeps every cost
// row for Lookup and Resolve; without, each cost row is dropped as soon
// as the row before it is filled and only the choice rows survive —
// enough for Lookup(n, 0).
func solveRows(tc *tabCache, procs []Processor, n, workers int, retain bool) (*Plan, error) {
	if err := validateDPInput(procs, n); err != nil {
		return nil, err
	}
	p := len(procs)
	pl := &Plan{
		procs: append([]Processor(nil), procs...),
		fps:   fingerprints(procs),
		n:     n,
		rows:  make([]planRow, p),
	}
	// Base row: the last processor takes everything that remains.
	comm, comp := tc.tables(procs[p-1], pl.fps[p-1], n)
	base := newPlanRow(n)
	for d := 0; d <= n; d++ {
		base.cost[d] = comm[d] + comp[d]
		base.choice[d] = int32(d)
	}
	pl.rows[p-1] = base
	pl.fillRows(tc, p-1, workers, retain)
	return pl, nil
}

// fillRows computes rows top-1 down to 0 at width pl.n from the
// filled row top. Without retain, each consumed cost row becomes the
// buffer of the row after next, so only two cost rows are ever live.
func (pl *Plan) fillRows(tc *tabCache, top, workers int, retain bool) {
	if top == 0 {
		return
	}
	var rp *rowPool
	if pl.n >= planParallelThreshold {
		rp = newRowPool(workers)
		defer rp.close()
	}
	var spare []float64 // without retain: the last consumed cost row
	for i := top - 1; i >= 0; i-- {
		comm, comp := tc.tables(pl.procs[i], pl.fps[i], pl.n)
		row := planRow{cost: spare, choice: make([]int32, pl.n+1)}
		if row.cost == nil {
			row.cost = make([]float64, pl.n+1)
		}
		next := pl.rows[i+1].cost
		rp.run(pl.n, &exactRow{comm: comm, comp: comp, next: next, cost: row.cost, choice: row.choice})
		pl.rows[i] = row
		if !retain {
			spare, pl.rows[i+1].cost = next, nil
		}
	}
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
	d, err := pl.resolve(newTabCache(), remaining, survivors, 0)
	if err != nil {
		return Result{}, err
	}
	return d.Lookup(remaining, 0)
}

// resolve is Resolve returning the derived plan, so the Engine can
// retain it for future warm starts. tc caches cost tables across
// solves. The body only reads pl: the Engine runs it without its
// mutex, concurrently with other resolves from the same plan.
func (pl *Plan) resolve(tc *tabCache, remaining int, survivors []Processor, workers int) (*Plan, error) {
	if err := validateDPInput(survivors, remaining); err != nil {
		return nil, err
	}
	if remaining > pl.n {
		// The retained rows are too narrow; nothing reusable.
		return solveRows(tc, survivors, remaining, workers, true)
	}
	p, m := len(pl.procs), len(survivors)
	sfps := fingerprints(survivors)
	// Longest common fingerprint suffix. Opaque functions ("") never
	// match: closures cannot be proven equal, so their rows are never
	// reused.
	t := commonFPSuffix(pl.fps, sfps)
	if t == 0 {
		return solveRows(tc, survivors, remaining, workers, true)
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
	d.fillRows(tc, m-t, workers, true)
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

// tabCache memoizes the comm/comp cost tables per fingerprint, so
// repeated solves on the same platform skip re-tabulation entirely.
// Safe for concurrent use: published tables are immutable, and the
// mutex guards only map access — concurrent solves of distinct
// platforms tabulate in parallel.
type tabCache struct {
	mu   sync.Mutex
	tabs map[string][]float64 //scatterlint:guardedby mu — values are immutable once published
}

func newTabCache() *tabCache {
	return &tabCache{tabs: make(map[string][]float64)}
}

// tables returns comm and comp tables covering [0, n] for pr. Opaque
// functions (fp == "") cannot be keyed, so they are tabulated afresh
// on every call.
func (tc *tabCache) tables(pr Processor, fp string, n int) (comm, comp []float64) {
	if fp == "" {
		comm, comp = make([]float64, n+1), make([]float64, n+1)
		tabulate(pr, n, comm, comp)
		return comm, comp
	}
	comm = tc.table(pr.Comm, "m|"+fp, n)
	comp = tc.table(pr.Comp, "p|"+fp, n)
	return comm, comp
}

func (tc *tabCache) table(f cost.Function, key string, n int) []float64 {
	tc.mu.Lock()
	tab, ok := tc.tabs[key]
	tc.mu.Unlock()
	if ok && len(tab) >= n+1 {
		return tab[:n+1]
	}
	// Tabulate outside the lock so distinct platforms fill in
	// parallel; concurrent fills of one key duplicate O(n) work at
	// worst, and the widest table wins the publish.
	tab = make([]float64, n+1)
	fillCosts(f, 0, tab)
	tc.mu.Lock()
	if cur, ok := tc.tabs[key]; ok && len(cur) >= len(tab) {
		tab = cur
	} else {
		tc.tabs[key] = tab
	}
	tc.mu.Unlock()
	return tab[:n+1]
}
