package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The closed forms of Theorems 1-2 written out once per mode: the
// plain solver with its own D, and the root-overlap solver with its own
// copy of the pruning loop. They are the reference that both modes of
// closedForm are held to bit for bit.

// refD computes the quantity D(P1,...,Pp) of Theorem 1:
//
//	D(P1..Pp) = 1 / sum_i [ 1/(alpha_i+beta_i) * prod_{j<i} beta_j/(alpha_j+beta_j) ]
//
// so that the balanced makespan with simultaneous endings is
// t = n * D(P1..Pp). The product follows from the simultaneous-endings
// recurrence Ti = Ti-1, which gives n_i*(alpha_i+beta_i) =
// beta_{i-1}*n_{i-1}. A processor with alpha+beta = 0 is infinitely
// fast and makes D zero.
func refD(lps []LinearProcessor) float64 {
	if len(lps) == 0 {
		return 0
	}
	sum := 0.0
	prod := 1.0
	for _, lp := range lps {
		ab := lp.Alpha + lp.Beta
		if ab == 0 {
			// Infinitely fast processor: it absorbs everything in no
			// time, so the suffix cost is zero and D diverges to 0.
			return 0
		}
		sum += prod / ab
		prod *= lp.Beta / ab
	}
	if sum == 0 {
		return 0
	}
	return 1 / sum
}

// refSolveLinearRational computes the optimal rational distribution for
// linear cost functions in the given processor order (root last),
// applying Theorem 2's participation criterion and Theorem 1's closed
// form. It runs in O(p²) time (a suffix scan per processor).
func refSolveLinearRational(lps []LinearProcessor, n int) (LinearSolution, error) {
	p := len(lps)
	if p == 0 {
		return LinearSolution{}, errors.New("core: no processors")
	}
	if n < 0 {
		return LinearSolution{}, fmt.Errorf("core: negative item count %d", n)
	}
	for i, lp := range lps {
		if lp.Alpha < 0 || lp.Beta < 0 {
			return LinearSolution{}, fmt.Errorf("core: processor %d (%s) has negative cost constants", i, lp.Name)
		}
	}

	sol := LinearSolution{
		Shares: make([]float64, p),
		Kept:   make([]bool, p),
	}

	// Decide participation back to front: Pi is kept iff
	// alpha_i <= D(kept processors after i). The last processor (the
	// root) is always kept: its alpha is 0 by convention, and
	// Theorem 2 only constrains i in [1, p-1].
	kept := make([]LinearProcessor, 0, p)
	keepFlags := make([]bool, p)
	keepFlags[p-1] = true
	kept = append(kept, lps[p-1])
	for i := p - 2; i >= 0; i-- {
		d := refD(kept)
		if lps[i].Alpha <= d {
			keepFlags[i] = true
			// Prepend: kept is ordered like the processor list.
			kept = append([]LinearProcessor{lps[i]}, kept...)
		}
	}
	copy(sol.Kept, keepFlags)

	// Theorem 1 on the kept set.
	dAll := refD(kept)
	if dAll == 0 {
		// An infinitely fast kept processor: give it everything.
		for i := range lps {
			if keepFlags[i] && lps[i].Alpha+lps[i].Beta == 0 {
				sol.Shares[i] = float64(n)
				return sol, nil
			}
		}
		// n == 0 or a degenerate set: all shares stay zero.
		return sol, nil
	}
	t := float64(n) * dAll
	sol.Makespan = t
	prod := 1.0
	for i := range lps {
		if !keepFlags[i] {
			continue
		}
		ab := lps[i].Alpha + lps[i].Beta
		sol.Shares[i] = prod / ab * t
		prod *= lps[i].Beta / ab
	}
	return sol, nil
}

// refSolveLinearRootOverlap computes the optimal rational distribution
// for linear cost functions when the root (the last processor) may
// compute concurrently with its sends. Workers behave exactly as in
// Theorem 1; the root's finish time becomes beta_p * n_p, independent
// of the communication chain, so the simultaneous-endings system gains
// the root term 1/beta_p without the usual product prefix:
//
//	t = n / ( sum_{i<p} 1/(a_i+b_i) * prod_{j<i} b_j/(a_j+b_j)  +  1/b_p )
//
// Worker pruning follows the Theorem 2 criterion against the
// overlap-aware suffix quantity.
func refSolveLinearRootOverlap(lps []LinearProcessor, n int) (LinearSolution, error) {
	p := len(lps)
	if p == 0 {
		return LinearSolution{}, errors.New("core: no processors")
	}
	if n < 0 {
		return LinearSolution{}, fmt.Errorf("core: negative item count %d", n)
	}
	for i, lp := range lps {
		if lp.Alpha < 0 || lp.Beta < 0 {
			return LinearSolution{}, fmt.Errorf("core: processor %d (%s) has negative cost constants", i, lp.Name)
		}
	}

	sol := LinearSolution{
		Shares: make([]float64, p),
		Kept:   make([]bool, p),
	}
	root := lps[p-1]
	sol.Kept[p-1] = true

	if root.Beta == 0 {
		// An infinitely fast overlapping root absorbs everything.
		sol.Shares[p-1] = float64(n)
		return sol, nil
	}

	// overlapD computes 1/S for a worker chain (ordered) plus the
	// overlapping root.
	overlapD := func(workers []LinearProcessor) float64 {
		sum := 1 / root.Beta
		prod := 1.0
		for _, w := range workers {
			ab := w.Alpha + w.Beta
			if ab == 0 {
				return 0 // infinitely fast worker
			}
			sum += prod / ab
			prod *= w.Beta / ab
		}
		return 1 / sum
	}

	// Prune workers back to front with the Theorem 2 criterion
	// against the overlap-aware suffix.
	kept := []LinearProcessor{}
	for i := p - 2; i >= 0; i-- {
		d := overlapD(kept)
		if lps[i].Alpha <= d {
			sol.Kept[i] = true
			kept = append([]LinearProcessor{lps[i]}, kept...)
		}
	}

	d := overlapD(kept)
	if d == 0 {
		// An infinitely fast kept worker takes everything.
		for i := 0; i < p-1; i++ {
			if sol.Kept[i] && lps[i].Alpha+lps[i].Beta == 0 {
				sol.Shares[i] = float64(n)
				return sol, nil
			}
		}
		return sol, nil
	}
	t := float64(n) * d
	sol.Makespan = t
	prod := 1.0
	for i := 0; i < p-1; i++ {
		if !sol.Kept[i] {
			continue
		}
		ab := lps[i].Alpha + lps[i].Beta
		sol.Shares[i] = prod / ab * t
		prod *= lps[i].Beta / ab
	}
	sol.Shares[p-1] = t / root.Beta
	return sol, nil
}

// TestClosedFormMatchesReference holds both modes of closedForm to the
// reference solvers bit for bit: Shares, Makespan and Kept, on random
// platforms with zero alphas, zero betas, a zero-cost root and n = 0.
func TestClosedFormMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// Dyadic draws make the Theorem 2 boundary alpha_i == D reachable.
	draw := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(8)) / 4
		}
		return rng.Float64() * 3
	}
	modes := []struct {
		name      string
		got, want func([]LinearProcessor, int) (LinearSolution, error)
	}{
		{"plain", SolveLinearRational, refSolveLinearRational},
		{"overlap", SolveLinearRootOverlap, refSolveLinearRootOverlap},
	}
	for trial := 0; trial < 3000; trial++ {
		p := 1 + rng.Intn(8)
		lps := make([]LinearProcessor, p)
		for i := range lps {
			lps[i] = LinearProcessor{Alpha: draw(), Beta: draw()}
		}
		switch rng.Intn(3) {
		case 0:
			lps[p-1] = LinearProcessor{} // zero-cost root
		case 1:
			lps[p-1].Alpha = 0
		}
		n := rng.Intn(2000)
		if rng.Intn(5) == 0 {
			n = 0
		}
		for _, m := range modes {
			got, gotErr := m.got(lps, n)
			want, wantErr := m.want(lps, n)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s trial %d: error %v, reference %v", m.name, trial, gotErr, wantErr)
			}
			if !sameBits(got.Makespan, want.Makespan) ||
				!slices.EqualFunc(got.Shares, want.Shares, sameBits) ||
				!slices.Equal(got.Kept, want.Kept) {
				t.Fatalf("%s trial %d on %+v, n=%d:\n got  %+v\n want %+v", m.name, trial, lps, n, got, want)
			}
		}
	}
}
