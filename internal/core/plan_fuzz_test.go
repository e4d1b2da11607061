package core

import (
	"testing"

	"repro/internal/cost"
)

// fuzzPlatform deterministically builds a p-processor increasing-cost
// platform (root last, zero comm) from two seed bytes, cycling through
// the fingerprintable cost types so suffix reuse sees linear, affine
// and tabulated rows.
func fuzzPlatform(p int, a, b uint8) []Processor {
	table := func(seed int) cost.Table {
		vals := make([]float64, 12)
		for k := 1; k < len(vals); k++ {
			vals[k] = vals[k-1] + float64((seed+k)%4)*0.25
		}
		return cost.Table{Values: vals, Increasing: true}
	}
	procs := make([]Processor, p)
	for i := range procs {
		var comm, comp cost.Function
		switch (int(a) + i) % 3 {
		case 0:
			comm = cost.Linear{PerItem: float64(1+(int(b)+i)%5) * 0.25}
		case 1:
			comm = cost.Affine{Fixed: float64((int(a)+2*i)%3) * 0.5, PerItem: float64(1+(int(b)+i)%4) * 0.25}
		default:
			comm = table(int(a) + i)
		}
		switch (int(b) + i) % 3 {
		case 0:
			comp = cost.Linear{PerItem: float64(1+(int(a)+i)%6) * 0.25}
		case 1:
			comp = cost.Affine{Fixed: float64((int(b)+i)%2) * 0.25, PerItem: float64(1+(int(a)+2*i)%5) * 0.25}
		default:
			comp = table(int(b) + 3*i)
		}
		procs[i] = Processor{Name: "f", Comm: comm, Comp: comp}
	}
	procs[p-1].Comm = cost.Zero
	return procs
}

// FuzzPlanResolve drives a retained plan through a randomized crash
// schedule — up to three cascading crashes of non-root processors, each
// with its own remaining item count — and asserts after every crash
// that the (chained) warm-started Resolve returns a distribution
// bit-identical to a fresh Algorithm 2 solve on the survivors. This is
// the property the mpi rebalance path and the chaos determinism
// invariant rely on.
func FuzzPlanResolve(f *testing.F) {
	f.Add(uint8(4), uint8(30), uint8(3), uint8(5), uint16(0x0000), uint8(20))
	f.Add(uint8(6), uint8(47), uint8(1), uint8(9), uint16(0x0421), uint8(7))
	f.Add(uint8(3), uint8(12), uint8(7), uint8(2), uint16(0xffff), uint8(0))
	f.Add(uint8(5), uint8(40), uint8(0), uint8(0), uint16(0x0132), uint8(40))
	f.Fuzz(func(t *testing.T, pRaw, nRaw, a, b uint8, mask uint16, remRaw uint8) {
		p := 2 + int(pRaw%5)
		n := int(nRaw % 48)
		procs := fuzzPlatform(p, a, b)

		plan, err := SolvePlan(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: the retained plan's own answer matches Algorithm 2.
		got, err := plan.Lookup(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDist(got.Distribution, want.Distribution) || got.Makespan != want.Makespan {
			t.Fatalf("plan differs from Algorithm2: %v (%g) vs %v (%g)",
				got.Distribution, got.Makespan, want.Distribution, want.Makespan)
		}

		cur := procs
		remaining := n
		for round := 0; round < 3 && len(cur) > 1; round++ {
			// Crash one non-root survivor picked by this round's nibble.
			victim := int(mask>>(4*round)) % (len(cur) - 1)
			survivors := make([]Processor, 0, len(cur)-1)
			survivors = append(survivors, cur[:victim]...)
			survivors = append(survivors, cur[victim+1:]...)
			// Shrink the outstanding pool (reclaimed items re-scattered).
			if remaining > 0 {
				remaining -= int(remRaw) % (remaining + 1)
			}

			got, err := plan.Resolve(remaining, survivors)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Algorithm2(survivors, remaining)
			if err != nil {
				t.Fatal(err)
			}
			if !sameDist(got.Distribution, want.Distribution) || got.Makespan != want.Makespan {
				t.Fatalf("round %d victim %d: Resolve(%d) = %v (%g), fresh = %v (%g)",
					round, victim, remaining, got.Distribution, got.Makespan,
					want.Distribution, want.Makespan)
			}
			// Chain: the next round resolves against the derived plan,
			// mirroring how the Engine warm-starts crash cascades.
			plan, err = plan.resolve(remaining, survivors, fingerprints(survivors))
			if err != nil {
				t.Fatal(err)
			}
			cur = survivors
		}
	})
}
