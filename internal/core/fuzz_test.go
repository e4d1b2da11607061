package core

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/cost"
)

// FuzzRoundShares checks the float rounding adapter on arbitrary share
// vectors: the result always has the right length, is non-negative,
// sums to n, and equals the big.Rat reference bit for bit.
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
		if want := refRoundShares([]float64{a, b, c}, n); !equalDist(dist, want) {
			t.Fatalf("RoundShares(%g %g %g, %d) = %v, reference %v", a, b, c, n, dist, want)
		}
	})
}

// FuzzRoundRatShares holds RoundRatShares to the big.Rat reference on
// shares a/da and b/db (denominators 1..2^32) topped up by a third share
// to the integer n = ceil(a/da + b/db) + extra.
func FuzzRoundRatShares(f *testing.F) {
	f.Add(uint32(5), uint32(2), uint32(7), uint32(2), uint8(4))
	f.Add(uint32(1), uint32(3), uint32(1), uint32(3), uint8(0))
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), uint8(0))
	f.Add(uint32(1), uint32(1), uint32(1), uint32(1), uint8(0))
	f.Add(uint32(4294967295), uint32(4294967294), uint32(1), uint32(4294967295), uint8(255))
	f.Fuzz(func(t *testing.T, a, da, b, db uint32, extra uint8) {
		x := big.NewRat(int64(a), int64(da)+1)
		y := big.NewRat(int64(b), int64(db)+1)
		sum := new(big.Rat).Add(x, y)
		ceil := new(big.Int).Quo(sum.Num(), sum.Denom())
		if !sum.IsInt() {
			ceil.Add(ceil, big.NewInt(1))
		}
		n := int(ceil.Int64()) + int(extra)
		z := new(big.Rat).Sub(new(big.Rat).SetInt64(int64(n)), sum)
		shares := []*big.Rat{x, y, z}
		got, err := RoundRatShares(shares, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refRoundRatShares(shares, n)
		if err != nil {
			t.Fatal(err)
		}
		if !equalDist(got, want) {
			t.Fatalf("RoundRatShares(%v, %d) = %v, reference %v", shares, n, got, want)
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
