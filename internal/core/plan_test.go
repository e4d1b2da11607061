package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cost"
)

// planTestProcs builds a small heterogeneous increasing-cost platform
// (root last, zero comm) mixing the fingerprintable cost types.
func planTestProcs() []Processor {
	return []Processor{
		{Name: "a", Comm: cost.Linear{PerItem: 0.25}, Comp: cost.Affine{Fixed: 0.5, PerItem: 1.0}},
		{Name: "b", Comm: cost.Affine{Fixed: 0.125, PerItem: 0.5}, Comp: cost.Linear{PerItem: 0.75}},
		{Name: "c", Comm: cost.Linear{PerItem: 0.5}, Comp: cost.Table{Values: []float64{0, 1, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6, 6.5, 7, 7.5, 8, 8.5, 9, 9.5, 10, 10.5, 11, 11.5, 12, 12.5, 13, 13.5, 14, 14.5, 15, 15.5, 16}, Increasing: true}},
		{Name: "d", Comm: cost.Linear{PerItem: 0.125}, Comp: cost.Linear{PerItem: 1.25}},
		{Name: "root", Comm: cost.Zero, Comp: cost.Linear{PerItem: 1.0}},
	}
}

func sameDist(a, b Distribution) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPlanLookupMatchesAlgorithm2 checks every suffix subproblem the
// plan can answer against a fresh Algorithm 2 solve.
func TestPlanLookupMatchesAlgorithm2(t *testing.T) {
	procs := planTestProcs()
	const n = 40
	pl, err := SolvePlan(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Items() != n || pl.Size() != len(procs) {
		t.Fatalf("Items/Size = %d/%d, want %d/%d", pl.Items(), pl.Size(), n, len(procs))
	}
	for i := 0; i < len(procs); i++ {
		for d := 0; d <= n; d++ {
			got, err := pl.Lookup(d, i)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Algorithm2(procs[i:], d)
			if err != nil {
				t.Fatal(err)
			}
			if !sameDist(got.Distribution, want.Distribution) || got.Makespan != want.Makespan {
				t.Fatalf("Lookup(%d, %d) = %v (%g), fresh = %v (%g)",
					d, i, got.Distribution, got.Makespan, want.Distribution, want.Makespan)
			}
		}
	}
}

// TestPlanLookupBounds checks the error paths.
func TestPlanLookupBounds(t *testing.T) {
	pl, err := SolvePlan(planTestProcs(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ d, i int }{{-1, 0}, {11, 0}, {5, -1}, {5, 5}} {
		if _, err := pl.Lookup(bad.d, bad.i); err == nil {
			t.Errorf("Lookup(%d, %d): no error", bad.d, bad.i)
		}
	}
}

// TestPlanResolvePureSuffix crashes the first-served processor: the
// survivors are a pure suffix, so no DP rows are recomputed and the
// derived plan keeps the full warm-start width.
func TestPlanResolvePureSuffix(t *testing.T) {
	procs := planTestProcs()
	const n = 40
	pl, err := SolvePlan(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	survivors := procs[1:]
	for _, remaining := range []int{n, n / 2, 1, 0} {
		got, err := pl.Resolve(remaining, survivors)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Algorithm2(survivors, remaining)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDist(got.Distribution, want.Distribution) || got.Makespan != want.Makespan {
			t.Fatalf("Resolve(%d) = %v (%g), fresh = %v (%g)",
				remaining, got.Distribution, got.Makespan, want.Distribution, want.Makespan)
		}
	}
	d, err := pl.resolve(n, survivors, fingerprints(survivors))
	if err != nil {
		t.Fatal(err)
	}
	if d.n != n {
		t.Fatalf("pure-suffix derived plan width = %d, want %d", d.n, n)
	}
	// Zero rows recomputed: every derived row is the source row itself.
	for j := range d.rows {
		if d.rows[j] != pl.rows[j+1] {
			t.Fatalf("pure-suffix derived row %d does not share source row %d", j, j+1)
		}
	}
}

// TestPlanResolvePartialSuffix crashes a middle processor: the suffix
// rows after it are reused, the prefix rows are rebuilt, and the result
// still matches a fresh solve bit for bit.
func TestPlanResolvePartialSuffix(t *testing.T) {
	procs := planTestProcs()
	const n = 40
	for crash := 1; crash < len(procs)-1; crash++ {
		pl, err := SolvePlan(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		survivors := make([]Processor, 0, len(procs)-1)
		survivors = append(survivors, procs[:crash]...)
		survivors = append(survivors, procs[crash+1:]...)
		for _, remaining := range []int{n, 17, 0} {
			got, err := pl.Resolve(remaining, survivors)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Algorithm2(survivors, remaining)
			if err != nil {
				t.Fatal(err)
			}
			if !sameDist(got.Distribution, want.Distribution) || got.Makespan != want.Makespan {
				t.Fatalf("crash=%d Resolve(%d) = %v (%g), fresh = %v (%g)",
					crash, remaining, got.Distribution, got.Makespan, want.Distribution, want.Makespan)
			}
		}
	}
}

// TestPlanResolveNoOverlap hands Resolve a platform sharing nothing
// with the plan; it must fall back to a fresh solve and still be exact.
func TestPlanResolveNoOverlap(t *testing.T) {
	pl, err := SolvePlan(planTestProcs(), 20)
	if err != nil {
		t.Fatal(err)
	}
	other := []Processor{
		{Name: "x", Comm: cost.Linear{PerItem: 3}, Comp: cost.Linear{PerItem: 2}},
		{Name: "y", Comm: cost.Zero, Comp: cost.Linear{PerItem: 5}},
	}
	got, err := pl.Resolve(15, other)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Algorithm2(other, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDist(got.Distribution, want.Distribution) {
		t.Fatalf("got %v, want %v", got.Distribution, want.Distribution)
	}
}

// TestPlanResolveWiderThanPlan asks for more items than the plan was
// solved for; the rows are too narrow, so Resolve re-solves fresh.
func TestPlanResolveWiderThanPlan(t *testing.T) {
	procs := planTestProcs()
	pl, err := SolvePlan(procs, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.Resolve(30, procs[1:])
	if err != nil {
		t.Fatal(err)
	}
	want, err := Algorithm2(procs[1:], 30)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDist(got.Distribution, want.Distribution) {
		t.Fatalf("got %v, want %v", got.Distribution, want.Distribution)
	}
}

// TestPlanOpaqueCostsNotReused wraps one survivor's cost in an opaque
// closure: its row must never be borrowed, but Resolve still returns
// the exact answer through the fresh-solve fallback.
func TestPlanOpaqueCostsNotReused(t *testing.T) {
	procs := planTestProcs()
	opaque := make([]Processor, len(procs))
	copy(opaque, procs)
	opaque[2].Comp = cost.Classified{F: cost.Func(func(x int) float64 { return 2 * float64(x) }), C: cost.Increasing}
	pl, err := SolvePlan(opaque, 20)
	if err != nil {
		t.Fatal(err)
	}
	if pl.fps[2] != "" {
		t.Fatalf("opaque processor fingerprint = %q, want empty", pl.fps[2])
	}
	got, err := pl.Resolve(12, opaque[1:])
	if err != nil {
		t.Fatal(err)
	}
	want, err := Algorithm2(opaque[1:], 12)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDist(got.Distribution, want.Distribution) {
		t.Fatalf("got %v, want %v", got.Distribution, want.Distribution)
	}
}

// TestEngineSolveMatrix drives Engine.Solve through cold, cache-hit,
// warm-start and fallback paths and checks every answer against the
// dispatch-equivalent fresh solver.
func TestEngineSolveMatrix(t *testing.T) {
	e := NewEngine(4)
	procs := planTestProcs()
	const n = 40

	check := func(procs []Processor, n int, fresh Solver) {
		t.Helper()
		got, err := e.Solve(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDist(got.Distribution, want.Distribution) || got.Makespan != want.Makespan {
			t.Fatalf("engine = %v (%g), fresh = %v (%g)",
				got.Distribution, got.Makespan, want.Distribution, want.Makespan)
		}
	}

	check(procs, n, Algorithm2) // cold
	if s := e.Stats(); s.ColdSolves != 1 {
		t.Fatalf("stats after cold solve: %+v", s)
	}
	check(procs, n, Algorithm2) // exact cache hit
	check(procs, n/2, Algorithm2)
	if s := e.Stats(); s.CacheHits != 2 {
		t.Fatalf("stats after warm lookups: %+v", s)
	}
	check(procs[1:], n, Algorithm2) // crash of first-served: warm resolve
	check(procs[2:], n-5, Algorithm2)
	if s := e.Stats(); s.Resolves != 2 {
		t.Fatalf("stats after resolves: %+v", s)
	}

	// General-class platform falls back to Algorithm 1.
	general := []Processor{
		{Name: "g", Comm: cost.Table{Values: []float64{0, 5, 3, 7}}, Comp: cost.Linear{PerItem: 1}},
		{Name: "root", Comm: cost.Zero, Comp: cost.Linear{PerItem: 1}},
	}
	check(general, 6, Algorithm1)
	// Increasing but opaque falls back to fresh Algorithm 2.
	opaque := []Processor{
		{Name: "o", Comm: cost.Classified{F: cost.Func(func(x int) float64 { return float64(x) }), C: cost.Increasing}, Comp: cost.Linear{PerItem: 1}},
		{Name: "root", Comm: cost.Zero, Comp: cost.Linear{PerItem: 1}},
	}
	check(opaque, 6, Algorithm2)
	if s := e.Stats(); s.Fallbacks != 2 {
		t.Fatalf("stats after fallbacks: %+v", s)
	}
}

// TestCrossoverMatchesKernel holds fullTable's crossover search, which
// evaluates comp one share at a time, to the crossover of the row's
// last cell by its definition over the full comp table — the emax the
// kernel reaches at d = n. It covers every row of Table 1 and of
// dyadic and float-affine platforms, each against the next row's costs
// as the kernel computes them, and dyadic table rows with flat
// stretches.
func TestCrossoverMatchesKernel(t *testing.T) {
	check := func(label string, comp cost.Function, next []float64, n int) {
		t.Helper()
		full := make([]float64, n+1)
		fillCosts(comp, 0, full)
		if got, want := crossover(comp, next, n), referenceCrossover(full, next, n); got != want {
			t.Fatalf("%s: crossover = %d, kernel's emax(%d) = %d", label, got, n, want)
		}
	}
	checkPlan := func(label string, procs []Processor, n int) {
		t.Helper()
		rows := kernelCostRows(procs, n)
		for i := 0; i+1 < len(procs); i++ {
			check(fmt.Sprintf("%s row %d", label, i), procs[i].Comp, rows[i+1], n)
		}
	}
	checkPlan("table1", table1Procs(), 5000)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		p, n := 2+rng.Intn(6), 1+rng.Intn(3000)
		checkPlan(fmt.Sprintf("dyadic %d", trial), randomDyadicProcs(rng, p), n)
		checkPlan(fmt.Sprintf("float-affine %d", trial), randomFloatAffineProcs(rng, p), n)
	}
	for trial := 0; trial < 40; trial++ {
		n, flat := 1+rng.Intn(500), trial%2 == 0
		comp := cost.Table{Values: dyadicTable(rng, n, flat), Increasing: true}
		check(fmt.Sprintf("dyadic table %d", trial), comp, dyadicTable(rng, n, flat), n)
	}
}

// TestEngineHeapStaysBounded solves a stream of fresh platforms —
// Table 1 with every cost jittered by up to 1%, as a planning daemon
// sees them — through an engine that retains one plan: 16 rows of
// 4,097 cells whose packed choices take ~17 KiB, no cost rows. Nothing
// else a solve builds may outlive it. The heap grew by -18 to +19 KiB
// in measured runs (with and without -race); the 128 KiB bound leaves
// ~110 KiB of margin for runtime noise and is a quarter of what the
// plan's cost rows alone (512 KiB) would add if a solve kept them.
// Cost tables kept per platform would grow the heap by ~32 MiB.
func TestEngineHeapStaysBounded(t *testing.T) {
	const platforms, n = 32, 4096
	rng := rand.New(rand.NewSource(5))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEngine(1)
	for k := 0; k < platforms; k++ {
		if _, err := e.Solve(jitteredTable1Procs(rng), n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s := e.Stats(); s.ColdSolves != platforms {
		t.Fatalf("stats = %+v, want %d cold solves", s, platforms)
	}
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 128<<10 {
		t.Fatalf("heap grew by %.1f KiB over %d solves, want at most 128 KiB", float64(growth)/(1<<10), platforms)
	}
}

// TestPlanCacheLRU checks capacity bounding, recency order and that
// rows shared with a derived plan survive their owner's eviction.
func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	procs := planTestProcs()
	mk := func(n int) *Plan {
		pl, err := SolvePlan(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	a, b := mk(10), mk(12)
	c.Put("a", a)
	c.Put("b", b)
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Get("a") != a { // bumps a's recency; b is now LRU
		t.Fatal("a not cached")
	}
	c.Put("c", mk(14))
	if c.Len() != 2 || c.Get("b") != nil {
		t.Fatalf("b not evicted (len %d)", c.Len())
	}
	if c.Get("a") != a || c.Get("c") == nil {
		t.Fatal("wrong survivors after eviction")
	}
	// Evicting the owner of shared rows must leave them intact.
	d, err := a.resolve(10, procs[1:], fingerprints(procs[1:]))
	if err != nil {
		t.Fatal(err)
	}
	c.Put("d", d) // evicts "a"
	c.Put("e", mk(8))
	if c.Get("a") != nil {
		t.Fatal("a still cached")
	}
	got, err := d.Lookup(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Algorithm2(procs[1:], 10)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDist(got.Distribution, want.Distribution) {
		t.Fatalf("derived plan corrupted after owner eviction: got %v, want %v", got.Distribution, want.Distribution)
	}
}

// TestPlanSolveParallelIdentical holds a demand-filled plan to the
// full table Algorithm 2 fills from two goroutines per row, past the
// fan-out threshold: Lookup(d, i) gives the same bits on both at every
// processor position and at item counts spread over the whole width.
func TestPlanSolveParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("large n")
	}
	procs := planTestProcs()
	n := rowFanOutThreshold + 123
	full, err := fullTable(procs, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := SolvePlan(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{n, n - 1, n / 2, rowFanOutThreshold - 1, 4097, 63, 0} {
		for i := range procs {
			got, err := demand.Lookup(d, i)
			if err != nil {
				t.Fatal(err)
			}
			want, err := full.Lookup(d, i)
			if err != nil {
				t.Fatal(err)
			}
			if !sameDist(got.Distribution, want.Distribution) || !sameBits(got.Makespan, want.Makespan) {
				t.Fatalf("Lookup(%d, %d): demand-filled %v (%g), full table %v (%g)",
					d, i, got.Distribution, got.Makespan, want.Distribution, want.Makespan)
			}
		}
	}
}

// TestPlatformClass pins the dispatch rule.
func TestPlatformClass(t *testing.T) {
	procs := planTestProcs()
	if got := PlatformClass(procs); got != cost.Increasing {
		t.Fatalf("class = %v, want increasing", got)
	}
	linear := []Processor{
		{Name: "l", Comm: cost.Linear{PerItem: 1}, Comp: cost.Linear{PerItem: 2}},
	}
	if got := PlatformClass(linear); got != cost.LinearClass {
		t.Fatalf("class = %v, want linear", got)
	}
	general := []Processor{
		{Name: "g", Comm: cost.Func(func(x int) float64 { return float64(x) }), Comp: cost.Linear{PerItem: 1}},
	}
	if got := PlatformClass(general); got != cost.General {
		t.Fatalf("class = %v, want general", got)
	}
}
