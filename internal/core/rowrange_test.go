package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dyadicTable builds an increasing cost table that is null at zero
// items, with dyadic increments so float comparisons are exact.
func dyadicTable(rng *rand.Rand, n int, flat bool) []float64 {
	t := make([]float64, n+1)
	for d := 1; d <= n; d++ {
		step := float64(rng.Intn(4)) * 0.25
		if !flat && step == 0 {
			step = 0.25
		}
		t[d] = t[d-1] + step
	}
	return t
}

func checkRowAgainstReference(t *testing.T, comm, comp, costNext []float64, n int, label string) {
	t.Helper()
	cost := make([]float64, n+1)
	choice := make([]int32, n+1)
	rowRange(comm, comp, costNext, cost, choice, 1, n)
	for d := 1; d <= n; d++ {
		wantSol, wantMin := referenceCell(comm, comp, costNext, d)
		if choice[d] != wantSol || cost[d] != wantMin {
			t.Fatalf("%s: d=%d: kernel (e=%d, %g) != reference (e=%d, %g)",
				label, d, choice[d], cost[d], wantSol, wantMin)
		}
	}
}

// TestRowRangeMatchesReference drives the optimized kernel against the
// plain specification on random dyadic tables, including flat stretches
// that force ties. The long trials scale the link costs down 64-fold,
// as on Table 1, so cells below the crossover skip bounded blocks,
// scan others and break in every order, and clip blocks at share 0.
func TestRowRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 44; trial++ {
		n := 1 + rng.Intn(200)
		if trial >= 40 {
			n = 2000 + rng.Intn(2000)
		}
		flat := trial%2 == 0
		comm := dyadicTable(rng, n, flat)
		comp := dyadicTable(rng, n, flat)
		costNext := dyadicTable(rng, n, flat)
		if trial >= 40 {
			for e := range comm {
				comm[e] /= 64
			}
		}
		checkRowAgainstReference(t, comm, comp, costNext, n, "random")
	}
}

// FuzzRowRange holds rowRange to referenceCell, bit for bit, on
// nondecreasing rows built from the fuzz bytes. Every row step is a
// small dyadic multiple of the row's scale (shape bits 0-5 pick 1,
// 1/8, 1/64 or 1/512 per row), so all sums are exact and zero steps
// make ties. Shape bit 6 zeroes the link row, the case where a block
// lowers min to exactly its last rest and breaks on it; bit 7 splits
// [lo, n] into chunks of 1-16 cells, each re-seeding its crossover.
func FuzzRowRange(f *testing.F) {
	f.Add(uint16(40), uint16(0), uint8(0x0c), []byte{7, 7, 7})
	f.Add(uint16(1500), uint16(3), uint8(0x23), []byte{5, 0, 2, 7, 1, 0, 3})
	f.Fuzz(func(t *testing.T, nRaw, loRaw uint16, shape uint8, steps []byte) {
		n := int(nRaw % 4096)
		lo := int(loRaw) % (n + 1)
		if len(steps) == 0 {
			steps = []byte{0}
		}
		row := func(r int) []float64 {
			scale := math.Ldexp(0.25, -3*int(shape>>(2*r)&3))
			tab := make([]float64, n+1)
			for x := 1; x <= n; x++ {
				tab[x] = tab[x-1] + float64(steps[(3*x+r)%len(steps)]&7)*scale
			}
			return tab
		}
		comm, comp, costNext := row(0), row(1), row(2)
		if shape&0x40 != 0 {
			clear(comm)
		}
		chunk := n + 1
		if shape&0x80 != 0 {
			chunk = 1 + int(steps[0]%16)
		}
		checkChunkedRow(t, comm, comp, costNext, lo, chunk, fmt.Sprintf("n=%d lo=%d shape=%#x", n, lo, shape))
	})
}

// FuzzRowRangeRounded is FuzzRowRange on rows whose sums round, the
// case the block bound's soundness argument is about: the link row is
// comm[e] = fl(c·e) for the fuzzed slope c (0 makes the bound the
// plain early break), and the computation and suffix rows are prefix
// sums of byte multiples of non-dyadic scales (shape bits 0-1 and 2-3
// pick 1/3, 0.1, 1e-3/7 or 1e5/3 per row), with zero bytes making
// flat stretches. A link slope far below the suffix row's ulp makes
// block bounds that equal min exactly. Shape bit 7 splits [lo, n] into
// chunks of 1-16 cells. The committed seeds pin a bound equal to min,
// blocks clipped at share 0, cells that skip a block, scan the next,
// update and then break, and zero-slope links.
func FuzzRowRangeRounded(f *testing.F) {
	f.Add(uint16(2000), uint16(0), 0.1/3, uint8(0x05), []byte{9, 200, 3, 77})
	f.Add(uint16(900), uint16(5), 0.0, uint8(0x84), []byte{1, 0, 250})
	f.Fuzz(func(t *testing.T, nRaw, loRaw uint16, c float64, shape uint8, steps []byte) {
		n := int(nRaw % 4096)
		lo := int(loRaw) % (n + 1)
		if len(steps) == 0 {
			steps = []byte{0}
		}
		if c = math.Abs(c); !(c <= 1e6) {
			c = 1.0 / 3 // NaN or huge: any non-dyadic slope will do
		}
		scales := [4]float64{1.0 / 3, 0.1, 1e-3 / 7, 1e5 / 3}
		row := func(r int) []float64 {
			scale := scales[shape>>(2*r)&3]
			tab := make([]float64, n+1)
			for x := 1; x <= n; x++ {
				tab[x] = tab[x-1] + float64(steps[(3*x+r)%len(steps)])*scale
			}
			return tab
		}
		comm := make([]float64, n+1)
		for e := range comm {
			comm[e] = c * float64(e)
		}
		comp, costNext := row(0), row(1)
		chunk := n + 1
		if shape&0x80 != 0 {
			chunk = 1 + int(steps[0]%16)
		}
		checkChunkedRow(t, comm, comp, costNext, lo, chunk, fmt.Sprintf("n=%d lo=%d c=%v shape=%#x", n, lo, c, shape))
	})
}

// checkChunkedRow fills the cells [lo, n] of a row with rowRange, in
// chunks of the given width, and holds every cell to referenceCell
// bit for bit. It then fills the chunks again from comm and comp cut
// after the crossover of the last cell n, as fullTable tabulates them,
// and requires the same bits: the kernel never reads past it.
func checkChunkedRow(t *testing.T, comm, comp, costNext []float64, lo, chunk int, label string) {
	t.Helper()
	n := len(comm) - 1
	fill := func(comm, comp []float64) ([]float64, []int32) {
		cost := make([]float64, n+1)
		choice := make([]int32, n+1)
		for a := lo; a <= n; a += chunk {
			rowRange(comm, comp, costNext, cost, choice, a, min(a+chunk-1, n))
		}
		return cost, choice
	}
	cost, choice := fill(comm, comp)
	for d := lo; d <= n; d++ {
		wantSol, wantMin := referenceCell(comm, comp, costNext, d)
		if choice[d] != wantSol || !sameBits(cost[d], wantMin) {
			t.Fatalf("%s d=%d: kernel (e=%d, %g) != reference (e=%d, %g)",
				label, d, choice[d], cost[d], wantSol, wantMin)
		}
	}
	top := referenceCrossover(comp, costNext, n)
	cutCost, cutChoice := fill(comm[:top+1], comp[:top+1])
	for d := lo; d <= n; d++ {
		if cutChoice[d] != choice[d] || !sameBits(cutCost[d], cost[d]) {
			t.Fatalf("%s d=%d: tables cut at emax(n)=%d give (e=%d, %g), full tables (e=%d, %g)",
				label, d, top, cutChoice[d], cutCost[d], choice[d], cost[d])
		}
	}
}

// TestRowRangeCrossoverExtremes pins the emax boundary cases: a
// computation table that dwarfs the suffix cost (emax = 1 from the
// first cell on) and a zero computation table (emax = d in every cell,
// the seed advancing by exactly one per step).
func TestRowRangeCrossoverExtremes(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(8))
	small := dyadicTable(rng, n, false)
	comm := dyadicTable(rng, n, false)

	huge := make([]float64, n+1)
	for d := 1; d <= n; d++ {
		huge[d] = 1 << 20
	}
	checkRowAgainstReference(t, comm, huge, small, n, "huge comp")

	zero := make([]float64, n+1)
	checkRowAgainstReference(t, comm, zero, small, n, "zero comp")

	// Zero suffix cost: comp[e] >= costNext[d-e] already at e = 0.
	checkRowAgainstReference(t, comm, small, zero, n, "zero costNext")
}

// TestRowRangeChunkSplitIdentity is the property the worker pool relies
// on: splitting a row into arbitrary [lo, hi] chunks — each re-seeding
// emax with its own binary search — produces bit-identical cost and
// choice values to one full-range call.
func TestRowRangeChunkSplitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(150)
		comm := dyadicTable(rng, n, trial%2 == 0)
		comp := dyadicTable(rng, n, trial%2 == 0)
		costNext := dyadicTable(rng, n, trial%2 == 0)

		whole := make([]float64, n+1)
		wholeChoice := make([]int32, n+1)
		rowRange(comm, comp, costNext, whole, wholeChoice, 1, n)

		split := make([]float64, n+1)
		splitChoice := make([]int32, n+1)
		for lo := 1; lo <= n; {
			hi := lo + rng.Intn(17) // single-cell chunks included
			if hi > n {
				hi = n
			}
			rowRange(comm, comp, costNext, split, splitChoice, lo, hi)
			lo = hi + 1
		}
		for d := 1; d <= n; d++ {
			if split[d] != whole[d] || splitChoice[d] != wholeChoice[d] {
				t.Fatalf("trial %d d=%d: chunked (e=%d, %g) != whole (e=%d, %g)",
					trial, d, splitChoice[d], split[d], wholeChoice[d], whole[d])
			}
		}
	}
}

// TestRowRangeEmptyRange: an inverted range must not touch the output.
func TestRowRangeEmptyRange(t *testing.T) {
	comm := []float64{0, 1}
	comp := []float64{0, 1}
	costNext := []float64{0, 1}
	cost := []float64{-7, -7}
	choice := []int32{-7, -7}
	rowRange(comm, comp, costNext, cost, choice, 1, 0)
	if cost[0] != -7 || cost[1] != -7 || choice[0] != -7 || choice[1] != -7 {
		t.Fatalf("empty range wrote output: cost %v choice %v", cost, choice)
	}
}
