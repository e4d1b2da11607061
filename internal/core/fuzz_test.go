package core

import (
	"math"
	"testing"

	"repro/internal/cost"
)

// FuzzRoundShares checks the float rounding adapter on arbitrary share
// vectors: the result always has the right length, is non-negative,
// and sums to n.
func FuzzRoundShares(f *testing.F) {
	f.Add(float64(2.5), float64(3.5), float64(4.0), 10)
	f.Add(0.0, 0.0, 0.0, 7)
	f.Add(math.NaN(), math.Inf(1), -5.0, 3)
	f.Add(1e18, 2e-18, 0.3, 100)
	f.Fuzz(func(t *testing.T, a, b, c float64, n int) {
		if n < 0 || n > 1<<20 {
			return
		}
		dist := RoundShares([]float64{a, b, c}, n)
		if len(dist) != 3 {
			t.Fatalf("len = %d", len(dist))
		}
		if dist.Sum() != n {
			t.Fatalf("sum = %d, want %d (shares %g %g %g)", dist.Sum(), n, a, b, c)
		}
		for i, x := range dist {
			if x < 0 {
				t.Fatalf("share %d negative: %d", i, x)
			}
		}
	})
}

// FuzzAlgorithm2Agreement fuzzes small DP instances against Algorithm 1
// on the structured inputs both support. The dyadic slopes make ties
// common, and both DPs must break them alike: distributions are
// compared bit for bit.
func FuzzAlgorithm2Agreement(f *testing.F) {
	f.Add(uint8(3), uint8(10), uint8(1), uint8(2), uint8(3))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(uint8(4), uint8(20), uint8(7), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, pRaw, nRaw, a1, b1, a2 uint8) {
		p := 1 + int(pRaw%4)
		n := int(nRaw % 24)
		procs := make([]Processor, p)
		for i := range procs {
			procs[i] = Processor{
				Name: "f",
				Comm: cost.Linear{PerItem: float64((int(a1)+i*int(a2))%8) * 0.25},
				Comp: cost.Linear{PerItem: float64(1+(int(b1)+i)%8) * 0.25},
			}
		}
		procs[p-1].Comm = cost.Zero
		r1, err := Algorithm1(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(r1.Makespan, r2.Makespan) || !equalDist(r1.Distribution, r2.Distribution) {
			t.Fatalf("Algorithm1 %v (%g) != Algorithm2 %v (%g) (p=%d n=%d)",
				r1.Distribution, r1.Makespan, r2.Distribution, r2.Makespan, p, n)
		}
		if err := r2.Distribution.Validate(p, n); err != nil {
			t.Fatal(err)
		}
	})
}
