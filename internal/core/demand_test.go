package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/cost"
)

// commHeavyProcs is Table 1 with every link's per-item cost times
// 100: the cone of cells an answer reads widens to about half the
// table.
func commHeavyProcs(procs []Processor) []Processor {
	procs = slices.Clone(procs)
	for i := range procs {
		if l, ok := procs[i].Comm.(cost.Linear); ok {
			procs[i].Comm = cost.Linear{PerItem: 100 * l.PerItem}
		}
	}
	return procs
}

// table1Cascade returns the three crashes of the solve-table1 cascade
// on Table 1 from n items: a merlin CPU, then a seven CPU, then
// pellinore, each leaving 82.5% of the items before it.
func table1Cascade(procs []Processor, n int) (survivors [][]Processor, remaining []int) {
	for _, pos := range []int{13, 3, 1} {
		procs, n = crashAt(procs, pos), n*825/1000
		survivors, remaining = append(survivors, procs), append(remaining, n)
	}
	return survivors, remaining
}

// TestEngineCells pins the DP cells an engine computes on Table 1: a
// cold solve, then each warm resolve of the solve-table1 cascade, at
// 16,384 and 50,381 items. Algorithm 2 computes p·(n+1) cells, 806,112
// at 50,381 items; a plan computes the blocks of the cone its answer
// reads. The counts are a function of the platform and the item
// counts alone, so they are the same at any GOMAXPROCS and under the
// race detector, and every answer is Algorithm 2's.
func TestEngineCells(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []int // cold, then each resolve of the cascade
	}{
		{16384, []int{7105, 5581, 3983, 3055}},
		{50381, []int{10702, 9501, 7027, 5506}},
	} {
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			e := NewEngine(0)
			platforms, items := table1Cascade(table1Procs(), tc.n)
			platforms, items = append([][]Processor{table1Procs()}, platforms...), append([]int{tc.n}, items...)
			for k := range platforms {
				before := e.Stats().Cells
				got, info, err := e.SolveDetailed(platforms[k], items[k])
				if err != nil {
					t.Fatal(err)
				}
				want, err := Algorithm2(platforms[k], items[k])
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("n=%d GOMAXPROCS=%d solve %d (%v)", tc.n, procs, k, info.Source)
				requireSameResult(t, label, got, want)
				if cells := e.Stats().Cells - before; cells != tc.want[k] {
					t.Errorf("%s: %d cells, want %d", label, cells, tc.want[k])
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// demandPlatform builds the platform of a FuzzPlanDemandOrder run:
// jittered Table 1, a float-affine platform or Table 1 with its links
// a hundred times slower, drawn from rng.
func demandPlatform(kind uint8, rng *rand.Rand) []Processor {
	switch kind % 3 {
	case 0:
		return jitteredTable1Procs(rng)
	case 1:
		return randomFloatAffineProcs(rng, 2+rng.Intn(8))
	default:
		return commHeavyProcs(jitteredTable1Procs(rng))
	}
}

// FuzzPlanDemandOrder drives one plan through a random sequence of
// lookups and resolves, in whatever order they fill its blocks: each
// op byte looks up some (d, i), resolves a crash of some processor at
// some item count, or runs eight such lookups and resolves on eight
// goroutines at once. Every answer must be Algorithm 2's bit for bit,
// and every block the plan published before an op must hold the same
// bits after it.
func FuzzPlanDemandOrder(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(4000), []byte{0x00, 0x41, 0x82, 0xc3, 0x14})
	f.Add(uint8(1), int64(2), uint16(3000), []byte{0xff, 0x10, 0x90, 0x20})
	f.Add(uint8(2), int64(3), uint16(2500), []byte{0x80, 0xc0, 0x07, 0x47})
	f.Add(uint8(0), int64(4), uint16(1), []byte{0xc0, 0x00})
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, nRaw uint16, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		procs := demandPlatform(kind, rng)
		n := int(nRaw) % 5000
		pl, err := SolvePlan(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		// one runs the op drawn from r: a lookup or a resolve, checked
		// against Algorithm 2.
		one := func(r *rand.Rand) error {
			d := r.Intn(n + 1)
			if r.Intn(2) == 0 || len(procs) == 1 {
				i := r.Intn(len(procs))
				got, err := pl.Lookup(d, i)
				if err != nil {
					return err
				}
				want, err := Algorithm2(procs[i:], d)
				if err != nil {
					return err
				}
				return sameResult(fmt.Sprintf("Lookup(%d, %d)", d, i), got, want)
			}
			survivors := crashAt(procs, r.Intn(len(procs)-1))
			got, err := pl.Resolve(d, survivors)
			if err != nil {
				return err
			}
			want, err := Algorithm2(survivors, d)
			if err != nil {
				return err
			}
			return sameResult(fmt.Sprintf("Resolve(%d) of %d survivors", d, len(survivors)), got, want)
		}
		if len(ops) > 8 {
			ops = ops[:8]
		}
		for k, op := range ops {
			before := planWords(pl)
			if op>>6 == 3 {
				var wg sync.WaitGroup
				errs := make([]error, 8)
				for g := range errs {
					r := rand.New(rand.NewSource(seed + int64(op)*8 + int64(g)))
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[g] = one(r)
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatalf("op %d, concurrent: %v", k, err)
					}
				}
			} else if err := one(rand.New(rand.NewSource(seed + int64(op)))); err != nil {
				t.Fatalf("op %d: %v", k, err)
			}
			requireKeptBlocks(t, fmt.Sprintf("op %d", k), before, planWords(pl))
		}
	})
}

// sameResult reports whether got is want bit for bit.
func sameResult(label string, got, want Result) error {
	if !slices.Equal(got.Distribution, want.Distribution) || !sameBits(got.Makespan, want.Makespan) {
		return fmt.Errorf("%s = %v (%v), Algorithm 2 = %v (%v)", label, got.Distribution, got.Makespan, want.Distribution, want.Makespan)
	}
	return nil
}
