package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
)

// The Section 3.3 rounding written in big.Rat: the float shares are
// converted and rescaled as rationals, and every comparison and error
// update is a rational one. It is the reference that RoundRatShares and
// RoundShares, which round integers over one denominator, are held to
// bit for bit (FuzzRoundRatShares, FuzzRoundShares).

// refRoundRatShares applies the paper's rounding scheme (Section 3.3) to
// exact rational shares that sum to n: repeatedly round, to the nearest
// integer in the direction that cancels the accumulated error, the
// share closest to that integer; fold the final error into the last
// remaining share. Every share moves by strictly less than 1 and the
// result sums exactly to n.
func refRoundRatShares(shares []*big.Rat, n int) (Distribution, error) {
	p := len(shares)
	if p == 0 {
		return nil, errors.New("core: no shares to round")
	}
	total := new(big.Rat)
	for i, s := range shares {
		if s == nil {
			return nil, fmt.Errorf("core: share %d is nil", i)
		}
		if s.Sign() < 0 {
			return nil, fmt.Errorf("core: share %d is negative (%s)", i, s.RatString())
		}
		total.Add(total, s)
	}
	if total.Cmp(new(big.Rat).SetInt64(int64(n))) != 0 {
		return nil, fmt.Errorf("core: shares sum to %s, want %d", total.RatString(), n)
	}

	dist := make(Distribution, p)
	remaining := make([]int, 0, p)
	for i := range shares {
		remaining = append(remaining, i)
	}
	err := new(big.Rat) // accumulated rounding error n'_i - n_i

	for len(remaining) > 1 {
		// Pick the remaining share nearest to its target integer:
		// nearest integer when err == 0, ceiling when err < 0 (we
		// under-shot, round someone up), floor when err > 0.
		bestIdx := -1
		bestPos := -1
		var bestDist *big.Rat
		var bestTarget *big.Int
		for pos, i := range remaining {
			target, dist := refRoundingTarget(shares[i], err.Sign())
			if bestIdx < 0 || dist.Cmp(bestDist) < 0 {
				bestIdx, bestPos, bestDist, bestTarget = i, pos, dist, target
			}
		}
		rounded := new(big.Rat).SetInt(bestTarget)
		diff := new(big.Rat).Sub(rounded, shares[bestIdx])
		err.Add(err, diff)
		if !bestTarget.IsInt64() {
			return nil, fmt.Errorf("core: rounded share %s overflows int64", bestTarget)
		}
		dist[bestIdx] = int(bestTarget.Int64())
		if dist[bestIdx] < 0 {
			dist[bestIdx] = 0 // cannot happen for non-negative shares; defensive
		}
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
	}

	// Last share absorbs the error: n'_k = n_k - err, which is exactly
	// n minus the other integer shares.
	k := remaining[0]
	rest := 0
	for i, v := range dist {
		if i != k {
			rest += v
		}
	}
	dist[k] = n - rest
	if dist[k] < 0 {
		return nil, fmt.Errorf("core: rounding drove share %d negative (%d)", k, dist[k])
	}
	return dist, nil
}

// refRoundingTarget returns the integer a share should be rounded to given
// the sign of the accumulated error, and the distance to that integer.
// errSign < 0 means previous roundings under-shot, so we round up;
// errSign > 0 rounds down; errSign == 0 rounds to nearest.
func refRoundingTarget(share *big.Rat, errSign int) (*big.Int, *big.Rat) {
	floor := new(big.Int).Quo(share.Num(), share.Denom())
	// big.Int Quo truncates toward zero; shares are non-negative so
	// truncation is the floor.
	fl := new(big.Rat).SetInt(floor)
	frac := new(big.Rat).Sub(share, fl)
	ceil := floor
	if frac.Sign() != 0 {
		ceil = new(big.Int).Add(floor, big.NewInt(1))
	}
	switch {
	case errSign < 0:
		// Round up: distance is ceil - share.
		d := new(big.Rat).Sub(new(big.Rat).SetInt(ceil), share)
		return ceil, d
	case errSign > 0:
		// Round down: distance is share - floor.
		return floor, frac
	default:
		// Nearest.
		up := new(big.Rat).Sub(new(big.Rat).SetInt(ceil), share)
		if frac.Cmp(up) <= 0 {
			return floor, frac
		}
		return ceil, up
	}
}

// refRoundShares is a float64 adapter around the paper's rounding scheme
// for callers (like the closed-form linear solver) whose rational
// shares were computed in floating point. The float shares are
// converted exactly to rationals and rescaled so they sum to exactly n
// before rounding; each resulting integer share differs from its input
// by less than 1 plus the float imprecision. n must be non-negative
// (every caller validates it): the rescaled shares are then
// non-negative and sum to n exactly, and the rounding keeps its
// accumulated error in (-1, 1), so refRoundRatShares cannot fail.
func refRoundShares(shares []float64, n int) Distribution {
	p := len(shares)
	if p == 0 {
		return nil
	}
	rats := make([]*big.Rat, p)
	total := new(big.Rat)
	for i, s := range shares {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			s = 0
		}
		r := new(big.Rat)
		r.SetFloat64(s)
		rats[i] = r
		total.Add(total, r)
	}
	want := new(big.Rat).SetInt64(int64(n))
	if total.Sign() == 0 {
		// Degenerate: spread everything on the last processor (the
		// root), which is always present.
		d := make(Distribution, p)
		d[p-1] = n
		return d
	}
	if total.Cmp(want) != 0 {
		scale := new(big.Rat).Quo(want, total)
		for i := range rats {
			rats[i].Mul(rats[i], scale)
		}
	}
	d, err := refRoundRatShares(rats, n)
	if err != nil {
		panic("core: internal error: " + err.Error())
	}
	return d
}
