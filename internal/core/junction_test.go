package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

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

// TestJunctionCostsMatchKernel computes every row's costs through a
// fault and holds them to the kernel's cost rows bit for bit, on Table
// 1, jittered Table 1, dyadic, float-affine and tabulated (cost.Table)
// platforms. On a plan whose every block Algorithm 2 published, the
// costs of a row are rebuilt from its choices, each block from the
// costs of the blocks of the next row it reads; they are read whole,
// row by row, and then over a few windows on a fresh fault. On a plan
// that answered Lookup(n, 0) alone, the fault fills the blocks it
// meets with the kernel and rebuilds the others. One jittered Table 1
// plan is wide enough for Algorithm 2 to publish its rows from two
// goroutines.
func TestJunctionCostsMatchKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(label string, procs []Processor, n int) {
		t.Helper()
		want := kernelCostRows(procs, n)
		whole, err := fullTable(procs, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		cone, err := SolvePlan(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cone.Lookup(n, 0); err != nil {
			t.Fatal(err)
		}
		for _, pl := range []*Plan{whole, cone} {
			f := pl.newFault()
			for j := len(procs) - 1; j >= 0; j-- {
				requireSameRow(t, fmt.Sprintf("%s row %d", label, j), f.costs(j, 0, n), want[j])
			}
			for k := 0; k < 4; k++ {
				j, a := rng.Intn(len(procs)), rng.Intn(n+1)
				z := a + rng.Intn(n+1-a)
				got := pl.newFault().costs(j, a, z)
				requireSameRow(t, fmt.Sprintf("%s row %d on [%d, %d]", label, j, a, z), got, want[j][a:z+1])
			}
		}
	}
	check("table1", table1Procs(), 3000)
	for trial := 0; trial < 4; trial++ {
		check(fmt.Sprintf("jittered table1 %d", trial), jitteredTable1Procs(rng), 1000+rng.Intn(3000))
	}
	check("fanned-out jittered table1", jitteredTable1Procs(rng), rowFanOutThreshold+123)
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

// planWords snapshots every published block of pl's rows: its header
// and words, by row and block.
func planWords(pl *Plan) map[[2]int][]uint64 {
	words := map[[2]int][]uint64{}
	for i, row := range pl.rows {
		for b, w := range rowWords(row) {
			if w != nil {
				words[[2]int{i, b}] = w
			}
		}
	}
	return words
}

// requireKeptBlocks fails unless every block published in before is
// published in after with the same bits.
func requireKeptBlocks(t *testing.T, label string, before, after map[[2]int][]uint64) {
	t.Helper()
	for key, w := range before {
		if !slices.Equal(after[key], w) {
			t.Fatalf("%s: row %d block %d changed from %x to %x", label, key[0], key[1], w, after[key])
		}
	}
}

// TestPlanBlocksImmutable resolves three times from one base: a crash
// deep in the platform, a crash nearer the root at another width, then
// the first crash again at a third, with lookups on the base between
// them. Each answer must match Algorithm 2 bit for bit. The derived
// plans share the base's suffix rows and publish into them: every
// block the base held before a resolve or a lookup must hold the same
// bits after it.
func TestPlanBlocksImmutable(t *testing.T) {
	procs := jitteredTable1Procs(rand.New(rand.NewSource(23)))
	const n = 4000
	base, err := SolvePlan(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Lookup(n, 0); err != nil {
		t.Fatal(err)
	}
	for k, c := range []struct{ crash, remaining, lookup int }{{4, 3900, 3000}, {9, 3500, 1200}, {4, 2000, 3999}} {
		before := planWords(base)
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
		after := planWords(base)
		requireKeptBlocks(t, fmt.Sprintf("resolve %d", k), before, after)
		if got, err = base.Lookup(c.lookup, 0); err != nil {
			t.Fatal(err)
		}
		if want, err = Algorithm2(procs, c.lookup); err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("lookup %d (%d items)", k, c.lookup), got, want)
		requireKeptBlocks(t, fmt.Sprintf("lookup %d", k), after, planWords(base))
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

// TestPlanChoiceBytes holds a fully demanded plan's packed choices to
// at most half a byte per DP cell, on jittered Table 1 at 16,384 items
// (the shape of a planning daemon's platforms) and on float-affine
// platforms, whose rounded costs step their choices by more than one,
// at 20,000 items. Every item count is looked up at every position, so
// every block of every row is published. The size counts every row's
// page index at its capacity, every page it allocated and every
// offset block's words, over the cells of the rows a plan keeps (the root keeps
// none).
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
		for i := range procs {
			for d := n; d >= 0; d-- {
				if _, err := pl.Lookup(d, i); err != nil {
					t.Fatal(err)
				}
			}
		}
		bytes := 0
		for _, row := range pl.rows {
			bytes += 8 * (cap(row.pages) + cap(row.pairs) + cap(row.offs))
			for k := range row.pages {
				if row.pages[k].Load() != nil {
					bytes += int(unsafe.Sizeof(choicePage{}))
				}
				if row.pairs[k].Load() != nil {
					bytes += int(unsafe.Sizeof(pairPage{}))
				}
				if op := row.offs[k].Load(); op != nil {
					bytes += int(unsafe.Sizeof(offsetPage{}))
					for b := range op.blk {
						if w := op.blk[b].Load(); w != nil {
							bytes += int(unsafe.Sizeof(*w)) + 8*cap(*w)
						}
					}
				}
			}
			for b := 0; b*choiceBlock <= row.n; b++ {
				if !row.filled(b) {
					t.Fatalf("%s: block %d of a row is not filled", label, b)
				}
			}
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
