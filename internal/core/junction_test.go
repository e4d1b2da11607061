package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cost"
)

// kernelCostRows returns every DP row's costs on [0, n] as the row
// kernel computes them: rowRange over full [0, n] cost tables, row by
// row from the root, keeping every row.
func kernelCostRows(procs []Processor, n int) [][]float64 {
	p := len(procs)
	rows := make([][]float64, p)
	comm, comp := make([]float64, n+1), make([]float64, n+1)
	tabulate(procs[p-1], n, comm, comp)
	rows[p-1] = make([]float64, n+1)
	for d := range rows[p-1] {
		rows[p-1][d] = comm[d] + comp[d]
	}
	choice := make([]int32, n+1)
	for i := p - 2; i >= 0; i-- {
		tabulate(procs[i], n, comm, comp)
		rows[i] = make([]float64, n+1)
		rowRange(comm, comp, rows[i+1], rows[i], choice, 0, n)
	}
	return rows
}

// jitteredTable1Procs is Table 1 with every cost jittered by up to 1%,
// as a planning daemon sees fresh measurements of it.
func jitteredTable1Procs(rng *rand.Rand) []Processor {
	jitter := func(f cost.Function) cost.Function {
		return cost.Linear{PerItem: f.(cost.Linear).PerItem * (1 + 0.01*(2*rng.Float64()-1))}
	}
	procs := table1Procs()
	for i := range procs {
		procs[i].Comm, procs[i].Comp = jitter(procs[i].Comm), jitter(procs[i].Comp)
	}
	return procs
}

// requireSameRow fails unless got holds want's bits on want's width.
func requireSameRow(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) < len(want) {
		t.Fatalf("%s: %d costs, want at least %d", label, len(got), len(want))
	}
	for d := range want {
		if !sameBits(got[d], want[d]) {
			t.Fatalf("%s: cost[%d] = %v, kernel's = %v", label, d, got[d], want[d])
		}
	}
}

// TestJunctionCostsMatchKernel rebuilds every row's costs from a
// plan's choices and holds them to the kernel's cost rows bit for bit,
// on Table 1, jittered Table 1, dyadic, float-affine and tabulated
// (cost.Table) platforms. One plan rebuilds row by row, each row from
// the memo of the row after it; another rebuilds row 0 from the root
// in one call, which memoizes row 0 alone, then the middle row, again
// from the root. A fresh plan holds no costs at all. One jittered
// Table 1 plan is wide enough to rebuild its rows on a pool of
// workers.
func TestJunctionCostsMatchKernel(t *testing.T) {
	check := func(label string, procs []Processor, n int) {
		t.Helper()
		want := kernelCostRows(procs, n)
		stepwise, err := SolvePlan(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range stepwise.rows {
			if row.cost.Load() != nil {
				t.Fatalf("%s: a fresh plan holds the costs of row %d", label, i)
			}
		}
		for j := len(procs) - 1; j >= 0; j-- {
			requireSameRow(t, fmt.Sprintf("%s row %d", label, j), stepwise.costs(j, nil), want[j])
		}
		whole, err := SolvePlan(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		rp := newRowPool(n, 2)
		defer rp.close()
		mid := len(procs) / 2
		requireSameRow(t, fmt.Sprintf("%s row 0 from the root", label), whole.costs(0, rp), want[0])
		requireSameRow(t, fmt.Sprintf("%s row %d from the root", label, mid), whole.costs(mid, rp), want[mid])
		for j, row := range whole.rows {
			if c := row.cost.Load(); (c != nil) != (j == 0 || j == mid) {
				t.Fatalf("%s: row %d memoized = %v", label, j, c != nil)
			}
		}
		requireSameRow(t, fmt.Sprintf("%s memoized row 0", label), *whole.rows[0].cost.Load(), want[0])
	}
	rng := rand.New(rand.NewSource(17))
	check("table1", table1Procs(), 3000)
	for trial := 0; trial < 4; trial++ {
		check(fmt.Sprintf("jittered table1 %d", trial), jitteredTable1Procs(rng), 1000+rng.Intn(3000))
	}
	check("pooled jittered table1", jitteredTable1Procs(rng), planParallelThreshold+123)
	for trial := 0; trial < 8; trial++ {
		p, n := 2+rng.Intn(6), rng.Intn(2000)
		check(fmt.Sprintf("dyadic %d", trial), randomDyadicProcs(rng, p), n)
		check(fmt.Sprintf("float-affine %d", trial), randomFloatAffineProcs(rng, p), n)
		check(fmt.Sprintf("table %d", trial), randomTableProcs(rng, p, n), n)
	}
}

// crashAt returns procs without the processor at position i.
func crashAt(procs []Processor, i int) []Processor {
	return append(append([]Processor(nil), procs[:i]...), procs[i+1:]...)
}

// TestPlanResolveMemo resolves three times from one base: a crash
// deep in the platform, a crash nearer the root at another width, then
// the first crash again at a third. Each answer must match Algorithm 2
// bit for bit. Each resolve memoizes its junction, the row behind the
// crash, on the base and no other row, and a memoized junction must
// stay exactly as it was: neither a resolve recomputing its prefix
// rows from it nor a later rebuild may use it as a buffer.
func TestPlanResolveMemo(t *testing.T) {
	procs := jitteredTable1Procs(rand.New(rand.NewSource(23)))
	const n = 4000
	base, err := SolvePlan(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	type memo struct {
		ptr  *[]float64
		bits []float64
	}
	kept := map[int]memo{}
	for k, c := range []struct{ crash, remaining int }{{4, 3900}, {9, 3500}, {4, 2000}} {
		survivors := crashAt(procs, c.crash)
		got, err := base.Resolve(c.remaining, survivors)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Algorithm2(survivors, c.remaining)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("resolve %d (crash %d, %d items)", k, c.crash, c.remaining), got, want)
		for j, m := range kept {
			if base.rows[j].cost.Load() != m.ptr {
				t.Fatalf("resolve %d replaced the memo of row %d", k, j)
			}
			requireSameRow(t, fmt.Sprintf("after resolve %d, memo of row %d", k, j), *m.ptr, m.bits)
		}
		if j := c.crash + 1; kept[j].ptr == nil {
			c := base.rows[j].cost.Load()
			if c == nil {
				t.Fatalf("resolve %d left its junction, row %d, without costs", k, j)
			}
			kept[j] = memo{c, append([]float64(nil), *c...)}
		}
		for j, row := range base.rows {
			if (row.cost.Load() != nil) != (kept[j].ptr != nil) {
				t.Fatalf("after resolve %d, row %d memoized = %v", k, j, row.cost.Load() != nil)
			}
		}
	}
	want := kernelCostRows(procs, n)
	for j, m := range kept {
		requireSameRow(t, fmt.Sprintf("memo of row %d", j), m.bits, want[j])
	}
}

// TestPlanResolveConcurrent runs resolves from one fresh base on many
// goroutines at once, at different crash positions and widths, so
// that they race to rebuild and memoize the same rows. Run under -race
// it checks that publishing rebuilt costs is safe; every answer must
// match Algorithm 2 bit for bit.
func TestPlanResolveConcurrent(t *testing.T) {
	procs := jitteredTable1Procs(rand.New(rand.NewSource(29)))
	const n, goroutines = 2500, 12
	base, err := SolvePlan(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		survivors []Processor
		remaining int
		want      Result
	}
	jobs := make([]job, goroutines)
	for g := range jobs {
		survivors := crashAt(procs, 2+g%12)
		remaining := n - 150*g
		want, err := Algorithm2(survivors, remaining)
		if err != nil {
			t.Fatal(err)
		}
		jobs[g] = job{survivors, remaining, want}
	}
	var wg sync.WaitGroup
	got := make([]Result, goroutines)
	errs := make([]error, goroutines)
	for g := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = base.Resolve(jobs[g].remaining, jobs[g].survivors)
		}()
	}
	wg.Wait()
	for g, j := range jobs {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		requireSameResult(t, fmt.Sprintf("goroutine %d", g), got[g], j.want)
	}
}

// TestPlanChoiceBytes holds a plan's packed choices to at most half a
// byte per DP cell, on jittered Table 1 at 16,384 items (the shape of
// a planning daemon's platforms) and on float-affine platforms, whose
// rounded costs step their choices by more than one, at 20,000 items.
// The size counts every row's headers and words at their capacity.
func TestPlanChoiceBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("large n")
	}
	check := func(label string, procs []Processor, n int) {
		t.Helper()
		pl, err := SolvePlan(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		bytes := 0
		for _, row := range pl.rows {
			bytes += 8 * (cap(row.choice.head) + cap(row.choice.data))
		}
		perCell := float64(bytes) / float64(len(pl.rows)*(n+1))
		t.Logf("%s: %.3f bytes per cell", label, perCell)
		if perCell > 0.5 {
			t.Fatalf("%s: choices take %.3f bytes per cell, want at most 0.5", label, perCell)
		}
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 3; trial++ {
		check(fmt.Sprintf("jittered table1 %d", trial), jitteredTable1Procs(rng), 16384)
	}
	for _, p := range []int{4, 8, 16} {
		check(fmt.Sprintf("float-affine p=%d", p), randomFloatAffineProcs(rng, p), 20000)
	}
}
