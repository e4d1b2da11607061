package core

import (
	"math/rand"
	"testing"
)

// TestAlgorithm2ParallelMatchesSequential holds the full-table driver,
// at any worker count, to Algorithm2 on random linear and affine
// platforms below the fan-out threshold, where every worker count fills
// the table in one chunk. TestAlgorithm2MatchesReferenceKernel sweeps
// the worker counts above it.
func TestAlgorithm2ParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		p := 1 + rng.Intn(6)
		n := rng.Intn(3000)
		var procs []Processor
		if trial%2 == 0 {
			procs = randomLinearProcs(rng, p)
		} else {
			procs = randomAffineProcs(rng, p)
		}
		seq, err := Algorithm2(procs, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 7} {
			pl, err := fullTable(procs, n, workers)
			if err != nil {
				t.Fatal(err)
			}
			par, err := pl.Lookup(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			if par.Makespan != seq.Makespan {
				t.Fatalf("trial %d workers %d: full table %g != Algorithm2 %g",
					trial, workers, par.Makespan, seq.Makespan)
			}
			// Bit-identical distributions (same tie-breaking).
			for i := range seq.Distribution {
				if par.Distribution[i] != seq.Distribution[i] {
					t.Fatalf("trial %d workers %d: distributions differ: %v vs %v",
						trial, workers, par.Distribution, seq.Distribution)
				}
			}
		}
	}
}

func TestAlgorithm2Validation(t *testing.T) {
	if _, err := fullTable(nil, 10, 4); err == nil {
		t.Error("no processors accepted")
	}
	if _, err := Algorithm2(figure1Procs(), -1); err == nil {
		t.Error("negative n accepted")
	}
}

func TestAlgorithm2SingleProcessor(t *testing.T) {
	procs := figure1Procs()[3:]
	res, err := Algorithm2(procs, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distribution[0] != 9 {
		t.Errorf("solo distribution = %v", res.Distribution)
	}
}
