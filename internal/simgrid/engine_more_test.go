package simgrid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Additional resource/engine properties beyond simgrid_test.go.

// TestResourceFinishTimeMonotoneProperty: more work never finishes
// earlier, and the finish time is never before the start.
func TestResourceFinishTimeMonotoneProperty(t *testing.T) {
	f := func(startRaw, w1Raw, w2Raw float64, winStart, winLen uint8, factorRaw float64) bool {
		start := math.Abs(math.Mod(startRaw, 1000))
		w1 := math.Abs(math.Mod(w1Raw, 1000))
		w2 := w1 + math.Abs(math.Mod(w2Raw, 1000))
		factor := 0.1 + math.Abs(math.Mod(factorRaw, 4))
		r := &Resource{Name: "p"}
		if winLen > 0 {
			if err := r.AddWindow(RateWindow{
				Start:  float64(winStart),
				End:    float64(winStart) + float64(winLen),
				Factor: factor,
			}); err != nil {
				return false
			}
		}
		f1 := r.FinishTime(start, w1)
		f2 := r.FinishTime(start, w2)
		return f1 >= start && f2 >= f1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestResourceWorkConservation: the finish time of work W started at t
// on a resource with a single window satisfies the integral equation
// (we recompute the consumed work from the reported finish).
func TestResourceWorkConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		r := &Resource{Name: "c"}
		wStart := rng.Float64() * 50
		wEnd := wStart + 1 + rng.Float64()*50
		factor := 0.25 + rng.Float64()*2
		if err := r.AddWindow(RateWindow{Start: wStart, End: wEnd, Factor: factor}); err != nil {
			t.Fatal(err)
		}
		start := rng.Float64() * 80
		work := rng.Float64() * 100
		finish := r.FinishTime(start, work)

		// Recompute the work done in [start, finish].
		done := 0.0
		segStart := start
		for _, seg := range []struct{ a, b, rate float64 }{
			{start, math.Min(finish, wStart), 1},
			{math.Max(start, wStart), math.Min(finish, wEnd), factor},
			{math.Max(start, wEnd), finish, 1},
		} {
			if seg.b > seg.a {
				done += (seg.b - seg.a) * seg.rate
			}
			_ = segStart
		}
		if math.Abs(done-work) > 1e-6*(1+work) {
			t.Fatalf("trial %d: finish %g accounts for %g work, want %g (window [%g,%g)x%g, start %g)",
				trial, finish, done, work, wStart, wEnd, factor, start)
		}
	}
}

func TestEngineEmptyRun(t *testing.T) {
	var eng Engine
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 0 {
		t.Errorf("empty run advanced to %g", eng.Now())
	}
}

func TestEngineManyEventsStress(t *testing.T) {
	var eng Engine
	rng := rand.New(rand.NewSource(62))
	fired := 0
	for i := 0; i < 5000; i++ {
		eng.At(rng.Float64()*1000, func() { fired++ })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 5000 {
		t.Errorf("fired %d events, want 5000", fired)
	}
}

// TestRunNoisePreservesOrdering: noise perturbs durations but never
// breaks the single-port invariant (receive starts are ordered).
func TestRunNoisePreservesOrdering(t *testing.T) {
	procs := simProcs()
	for seed := int64(0); seed < 10; seed++ {
		tl, err := Run(Config{
			Procs: procs,
			Dist:  []int{3, 3, 3, 3},
			Noise: &Noise{Seed: seed, CommStdDev: 0.3, CompStdDev: 0.3},
		})
		if err != nil {
			t.Fatal(err)
		}
		prevEnd := 0.0
		for i, p := range tl.Procs {
			if p.Recv.Start < prevEnd-1e-9 {
				t.Fatalf("seed %d: proc %d receives at %g before the port freed at %g",
					seed, i, p.Recv.Start, prevEnd)
			}
			prevEnd = p.Recv.End
		}
	}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }
