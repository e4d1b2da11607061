package core

import (
	"fmt"

	"repro/internal/cost"
)

// This file implements the incremental solver: a Plan keeps the
// choice rows of the Algorithm 2 recurrence, packed (choices.go), so
// that any suffix subproblem — "distribute d items over processors
// Pi..Pp" — is answered by an O(p) walk of the choice rows instead of a
// fresh O(p·n²) solve.
//
// A plan fills its rows on demand (demand.go): a Lookup computes the
// blocks of cells its answer reads, and no others, and publishes their
// choices for every later Lookup. A cold solve is a new plan's first
// Lookup.
//
// The key structural fact (Section 3.2 of the paper): row i of the DP
// depends only on the processors at positions i..p-1 and on d. A crash
// of the processor at service position i invalidates exactly the rows
// 0..i, while rows i+1..p-1 remain valid verbatim for the surviving
// suffix. Plan.Resolve exploits this: when the survivors share a
// cost-fingerprint suffix with the plan's platform, the derived plan
// shares those rows, blocks filled and unfilled alike, and only its
// prefix rows start empty (there are none when the first-served
// processor is the one that crashed).
//
// No plan keeps a cost: a fault computes the costs it reads, from the
// kernel for the blocks it fills and from the choices for the blocks
// already filled, and drops them when it returns.

// Plan is a retained solution of the Algorithm 2 dynamic program for a
// platform and item count, answering suffix subproblems and warm-started
// re-solves without repeating work. Build one with SolvePlan or through
// an Engine. A Plan's processors never change, and each block of its
// choices is published once and never changes after: Lookup and
// Resolve are safe for concurrent use.
type Plan struct {
	procs []Processor
	fps   []string // per-processor cost fingerprint; "" if opaque
	n     int      // rows answer any d in [0, n]
	// rows[i] holds the choices of processor i, i < p-1. The root,
	// served last, takes whatever remains, so it keeps no row.
	rows []*choiceRow
}

// Items returns the item count the plan was solved for; Lookup and
// warm-started Resolve answer any count up to it.
func (pl *Plan) Items() int { return pl.n }

// Size returns the number of processors in the plan's platform.
func (pl *Plan) Size() int { return len(pl.procs) }

// SolvePlan returns a plan of the Algorithm 2 dynamic program over
// increasing cost functions for up to n items. It computes no cell:
// each Lookup fills the blocks its answer reads. The distribution
// Lookup(n, 0) returns is bit-identical to Algorithm2's: both run the
// rowRange kernel, and the demanded cells are those Algorithm 2
// computes.
func SolvePlan(procs []Processor, n int) (*Plan, error) {
	if err := validateDPInput(procs, n); err != nil {
		return nil, err
	}
	return newPlan(procs, fingerprints(procs), n, nil), nil
}

// newPlan returns a plan of procs up to n items whose last rows are
// suffix, shared as they are, and whose other rows are empty.
func newPlan(procs []Processor, fps []string, n int, suffix []*choiceRow) *Plan {
	rows := make([]*choiceRow, len(procs)-1)
	k := len(rows) - len(suffix)
	for i := range rows[:k] {
		rows[i] = newChoiceRow(n)
	}
	copy(rows[k:], suffix)
	return &Plan{procs: append([]Processor(nil), procs...), fps: fps, n: n, rows: rows}
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
// processors i..p-1" by walking the choice rows: O(p) time when the
// cells it reads are filled, and otherwise the time to fill the blocks
// it reads (demand.go). The result is bit-identical to a fresh
// Algorithm2 solve on procs[i:] with d items.
func (pl *Plan) Lookup(d, i int) (Result, error) {
	res, _, err := pl.lookup(d, i)
	return res, err
}

// lookup is Lookup also returning the number of DP cells it computed.
func (pl *Plan) lookup(d, i int) (Result, int, error) {
	p := len(pl.procs)
	if i < 0 || i >= p {
		return Result{}, 0, fmt.Errorf("core: plan lookup position %d outside [0, %d)", i, p)
	}
	if d < 0 || d > pl.n {
		return Result{}, 0, fmt.Errorf("core: plan lookup item count %d outside [0, %d]", d, pl.n)
	}
	procs := pl.procs[i:]
	dist := make(Distribution, p-i)
	var f *fault
	rem := d
	for j := i; j < p; j++ {
		e := rem
		if j < p-1 {
			c, ok := pl.rows[j].at(rem)
			if !ok {
				if f == nil {
					f = pl.newFault()
				}
				f.ensure(j, rem/choiceBlock)
				c, _ = pl.rows[j].at(rem)
			}
			e = int(c)
		}
		dist[j-i] = e
		rem -= e
	}
	cells := 0
	if f != nil {
		cells = f.cells
	}
	return Result{Distribution: dist, Makespan: Makespan(procs, dist)}, cells, nil
}

// Resolve computes an optimal distribution of remaining items over the
// survivors, reusing every DP row the crash left valid. When the
// survivors' cost fingerprints match a suffix of the plan's platform,
// the derived plan shares those rows and fills only what its answer
// reads; otherwise it starts from empty rows. Either way the
// distribution is bit-identical to Algorithm2(survivors, remaining).
func (pl *Plan) Resolve(remaining int, survivors []Processor) (Result, error) {
	d, err := pl.resolve(remaining, survivors, fingerprints(survivors))
	if err != nil {
		return Result{}, err
	}
	return d.Lookup(remaining, 0)
}

// resolve is Resolve returning the derived plan before its first
// Lookup, so the Engine can retain it for future warm starts; sfps are
// the survivors' fingerprints. It computes no cell and only reads pl:
// the Engine runs it without its mutex, concurrently with other
// resolves from the same plan.
func (pl *Plan) resolve(remaining int, survivors []Processor, sfps []string) (*Plan, error) {
	if err := validateDPInput(survivors, remaining); err != nil {
		return nil, err
	}
	if remaining > pl.n {
		// The retained rows are too narrow; nothing reusable.
		return newPlan(survivors, sfps, remaining, nil), nil
	}
	// Longest common fingerprint suffix. Opaque functions ("") never
	// match: closures cannot be proven equal, so their rows are never
	// reused.
	t := commonFPSuffix(pl.fps, sfps)
	if t == len(survivors) {
		// Pure suffix: every row survives at full width. The derived
		// plan inherits the whole warm-start range.
		return newPlan(survivors, sfps, pl.n, pl.rows[len(pl.rows)-(t-1):]), nil
	}
	// Partial reuse (none when t is 0): the invalidated prefix rows
	// start empty, at the width needed now.
	return newPlan(survivors, sfps, remaining, pl.rows[len(pl.rows)-max(t-1, 0):]), nil
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
