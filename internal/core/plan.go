package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cost"
)

// This file implements the incremental solver: a Plan keeps the
// choice rows of the Algorithm 2 recurrence, packed (choices.go), so
// that any suffix subproblem — "distribute d items over processors
// Pi..Pp" — is answered by an O(p) walk of the choice rows instead of a
// fresh O(p·n²) solve.
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
//
// No solve keeps a cost row past the filling of the next one: a cost
// row is a function of its row's choices and the costs of the row after
// it, cost_i[d] = comm_i(s) + max(comp_i(s), cost_{i+1}[d-s]) with
// s = choice_i[d], the kernel's own expression. A partial resolve needs
// the costs of one row, the junction where the reused suffix starts,
// and rebuilds them from the root's row upward (Plan.costs). The
// junction's costs are memoized on the row itself, so a plan used as a
// warm base pays for a junction's rebuild once, not on every resolve.

// planRow is one retained DP row: its packed choices (choice[d] is the
// share the row's processor takes of d items on the row's suffix) and,
// once a partial resolve has rebuilt them, its costs (cost[d] is the
// optimal makespan of d items on the suffix). The choices never change
// once packed, so derived plans share suffix rows with their source as
// they are, and the garbage collector frees a row when no plan
// references it. Every rebuild of a row's costs computes the same
// bits, so racing rebuilders store equal rows.
type planRow struct {
	choice choiceRow
	cost   atomic.Pointer[[]float64] //scatterlint:guardedby atomic
}

// Plan is a retained solution of the Algorithm 2 dynamic program for a
// platform and item count, answering suffix subproblems and warm-started
// re-solves without repeating work. Build one with SolvePlan or through
// an Engine. A Plan's processors and choices never change once built,
// and its rows' rebuilt costs are published atomically: Lookup and
// Resolve are safe for concurrent use.
type Plan struct {
	procs []Processor
	fps   []string // per-processor cost fingerprint; "" if opaque
	n     int      // rows answer any d in [0, n]
	rows  []*planRow
}

// Items returns the item count the plan was solved for; Lookup and
// warm-started Resolve answer any count up to it.
func (pl *Plan) Items() int { return pl.n }

// Size returns the number of processors in the plan's platform.
func (pl *Plan) Size() int { return len(pl.procs) }

// SolvePlan runs the Algorithm 2 dynamic program over increasing cost
// functions and retains every DP row's choices. The distribution
// reachable via Lookup(n, 0) is bit-identical to Algorithm2's: both run
// solveRows.
func SolvePlan(procs []Processor, n int) (*Plan, error) {
	return solveRows(procs, fingerprints(procs), n, 0)
}

// planParallelThreshold is the item count from which a solve fills
// rows with a worker pool (newRowPool); below it the fan-out costs more
// than the row computation, so small solves stay on the calling
// goroutine.
const planParallelThreshold = 1 << 15

// baseWindow is the number of shares at a time for which the base row
// evaluates the root's costs.
const baseWindow = 1024

// solveRows runs every exact Algorithm 2 solve. It fills the base row,
// then every other row with rowRange, on a pool of workers (<= 0:
// GOMAXPROCS) once n reaches planParallelThreshold. fps are the
// processors' fingerprints, kept for Resolve's suffix matching (nil
// when the plan will never be resolved). The plan keeps every row's
// packed choices, enough for Lookup and Resolve, and no costs.
func solveRows(procs []Processor, fps []string, n, workers int) (*Plan, error) {
	if err := validateDPInput(procs, n); err != nil {
		return nil, err
	}
	p := len(procs)
	pl := &Plan{
		procs: append([]Processor(nil), procs...),
		fps:   fps,
		n:     n,
		rows:  make([]*planRow, p),
	}
	// Base row: the last processor takes everything that remains.
	all := make([]int32, n+1)
	for d := range all {
		all[d] = int32(d)
	}
	pl.rows[p-1] = &planRow{choice: packChoices(all)}
	rp := newRowPool(n, workers)
	defer rp.close()
	pl.fillRows(p-1, rootCosts(procs[p-1], n), true, rp)
	return pl, nil
}

// rootCosts returns the base row's costs on [0, n]: the last processor
// takes everything that remains. They are evaluated a window at a
// time, never as n-wide tables.
func rootCosts(pr Processor, n int) []float64 {
	cost := make([]float64, n+1)
	var win costRow
	for lo := 0; lo <= n; lo += baseWindow {
		win.resize(min(baseWindow, n+1-lo))
		win.fill(pr, lo)
		for k := range win.comm {
			cost[lo+k] = win.comm[k] + win.comp[k]
		}
	}
	return cost
}

// fillRows computes rows top-1 down to 0 at width pl.n from next, the
// costs of row top on at least [0, pl.n]. Row i reads its processor's
// costs only up to its crossover at d = pl.n (see rowRange), so it
// evaluates them on [0, emax_i(pl.n)] alone, into two buffers every
// row reuses. Each row is computed into one choice buffer and one cost
// buffer and keeps only its packed choices. Two cost rows are live at
// a time: once a row is filled, the costs it consumed become the
// buffer of the row after it — when they belong to this solve, which
// own says of next; a memoized junction row is never overwritten.
// Rows are filled on rp (nil: on the calling goroutine).
func (pl *Plan) fillRows(top int, next []float64, own bool, rp *rowPool) {
	var tabs costRow    // the row processor's costs up to its crossover
	var spare []float64 // the last consumed cost row this solve owns
	var pack choicePacker
	choice := make([]int32, pl.n+1)
	for i := top - 1; i >= 0; i-- {
		tabs.resize(crossover(pl.procs[i].Comp, next, pl.n) + 1)
		tabs.fill(pl.procs[i], 0)
		cost := spare
		if cost == nil {
			cost = make([]float64, pl.n+1)
		}
		pack.reset(choice)
		rp.run(pl.n, &exactRow{comm: tabs.comm, comp: tabs.comp, next: next, cost: cost, pack: &pack})
		pl.rows[i] = &planRow{choice: pack.finish()}
		if own {
			spare = next
		}
		next, own = cost, true
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
		e := int(pl.rows[j].choice.at(rem))
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
		return solveRows(survivors, sfps, remaining, workers)
	}
	p, m := len(pl.procs), len(survivors)
	// Longest common fingerprint suffix. Opaque functions ("") never
	// match: closures cannot be proven equal, so their rows are never
	// reused.
	t := commonFPSuffix(pl.fps, sfps)
	if t == 0 {
		return solveRows(survivors, sfps, remaining, workers)
	}

	d := &Plan{
		procs: append([]Processor(nil), survivors...),
		fps:   sfps,
		rows:  make([]*planRow, m),
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
	// width actually needed now, from the junction row's costs.
	d.n = remaining
	rp := newRowPool(remaining, workers)
	defer rp.close()
	d.fillRows(m-t, pl.costs(p-t, rp), false, rp)
	return d, nil
}

// costs returns the costs of row j on its choices' whole width, and
// memoizes them on the row. When no resolve has rebuilt them yet, they
// are rebuilt from the nearest row toward the root that holds memoized
// costs (from the root's own costs when none does), row by row through
// the choices with the kernel's expression. The rows in between only
// feed the next one, so two buffers serve them all and only row j's
// costs are kept. Row widths never grow from the root toward row 0 (a
// derived plan's recomputed rows are at most as wide as the rows it
// shares), so every row's costs cover the row before it. Rows are
// rebuilt on rp (nil: on the calling goroutine).
func (pl *Plan) costs(j int, rp *rowPool) []float64 {
	p := len(pl.rows)
	k := j
	var next []float64
	for ; k < p; k++ {
		if c := pl.rows[k].cost.Load(); c != nil {
			next = *c
			break
		}
	}
	if k == j {
		return next
	}
	var tabs costRow
	var spare []float64 // a row rebuilt here that no later row reads
	for i := k - 1; i >= j; i-- {
		w := pl.rows[i].choice.n
		var cost []float64
		if i == p-1 {
			cost = rootCosts(pl.procs[i], w)
		} else {
			// Every choice lies at or below its cell's crossover, and
			// so at or below the crossover at d = w, as in fillRows.
			tabs.resize(crossover(pl.procs[i].Comp, next, w) + 1)
			tabs.fill(pl.procs[i], 0)
			cost = spare
			if i == j || cost == nil {
				cost = make([]float64, w+1) // row j's costs are kept
			}
			cost = cost[:w+1]
			rp.run(w, &rebuiltRow{comm: tabs.comm, comp: tabs.comp, next: next, cost: cost, choice: &pl.rows[i].choice})
		}
		if i < k-1 {
			spare = next
		}
		next = cost
	}
	pl.rows[j].cost.Store(&next)
	return next
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
