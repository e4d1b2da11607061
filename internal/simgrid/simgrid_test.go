package simgrid

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/schedule"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	var eng Engine
	var got []float64
	eng.At(3, func() { got = append(got, 3) })
	eng.At(1, func() { got = append(got, 1) })
	eng.At(2, func() { got = append(got, 2) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(got) || len(got) != 3 {
		t.Errorf("events ran out of order: %v", got)
	}
	if eng.Now() != 3 {
		t.Errorf("final time = %g, want 3", eng.Now())
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	var eng Engine
	var got []int
	eng.At(1, func() { got = append(got, 1) })
	eng.At(1, func() { got = append(got, 2) })
	eng.At(1, func() { got = append(got, 3) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var eng Engine
	total := 0
	eng.At(0, func() {
		eng.After(5, func() {
			total += 1
			eng.After(5, func() { total += 10 })
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 11 || eng.Now() != 10 {
		t.Errorf("total = %d at %g, want 11 at 10", total, eng.Now())
	}
}

func TestEngineCausalityViolation(t *testing.T) {
	var eng Engine
	eng.At(5, func() { eng.At(1, func() {}) })
	if err := eng.Run(); err == nil {
		t.Error("scheduling in the past not detected")
	}
}

func TestResourceFullSpeed(t *testing.T) {
	r := &Resource{Name: "cpu"}
	if got := r.FinishTime(10, 5); got != 15 {
		t.Errorf("FinishTime = %g, want 15", got)
	}
	if got := r.FinishTime(10, 0); got != 10 {
		t.Errorf("zero work FinishTime = %g, want 10", got)
	}
}

func TestResourceHalfSpeedWindow(t *testing.T) {
	r := &Resource{Name: "cpu"}
	if err := r.AddWindow(RateWindow{Start: 10, End: 20, Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	// 5 work starting at 0: finishes at 5, before the window.
	if got := r.FinishTime(0, 5); got != 5 {
		t.Errorf("before window: %g, want 5", got)
	}
	// 15 work starting at 0: 10 done by t=10, remaining 5 at half
	// speed takes 10 -> finishes at 20.
	if got := r.FinishTime(0, 15); got != 20 {
		t.Errorf("across window: %g, want 20", got)
	}
	// Work starting inside the window.
	if got := r.FinishTime(12, 2); got != 16 {
		t.Errorf("inside window: %g, want 16", got)
	}
	// Work that outlives the window resumes at full speed: start 15,
	// work 4: 2.5 at half speed until t=20 (2.5 done), 1.5 more at
	// full speed -> 21.5.
	if got := r.FinishTime(15, 4); got != 21.5 {
		t.Errorf("outliving window: %g, want 21.5", got)
	}
}

func TestResourceStoppedWindow(t *testing.T) {
	r := &Resource{Name: "cpu"}
	if err := r.AddWindow(RateWindow{Start: 5, End: 10, Factor: 0}); err != nil {
		t.Fatal(err)
	}
	// Work hits the stop and waits it out.
	if got := r.FinishTime(0, 7); got != 12 {
		t.Errorf("FinishTime = %g, want 12", got)
	}
}

func TestResourceDoubleSpeedWindow(t *testing.T) {
	r := &Resource{Name: "cpu"}
	if err := r.AddWindow(RateWindow{Start: 0, End: 4, Factor: 2}); err != nil {
		t.Fatal(err)
	}
	if got := r.FinishTime(0, 6); got != 3 {
		t.Errorf("FinishTime = %g, want 3", got)
	}
	if got := r.FinishTime(0, 10); got != 6 {
		t.Errorf("FinishTime = %g, want 6 (8 fast + 2 normal)", got)
	}
}

func TestResourceWindowValidation(t *testing.T) {
	r := &Resource{Name: "x"}
	if err := r.AddWindow(RateWindow{Start: 5, End: 5, Factor: 1}); err == nil {
		t.Error("empty window accepted")
	}
	if err := r.AddWindow(RateWindow{Start: 0, End: 5, Factor: -1}); err == nil {
		t.Error("negative factor accepted")
	}
	if err := r.AddWindow(RateWindow{Start: 0, End: 5, Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddWindow(RateWindow{Start: 4, End: 6, Factor: 0.5}); err == nil {
		t.Error("overlapping window accepted")
	}
	if err := r.AddWindow(RateWindow{Start: 5, End: 6, Factor: 0.5}); err != nil {
		t.Errorf("adjacent window rejected: %v", err)
	}
}

func TestResourceStoppedForever(t *testing.T) {
	r := &Resource{Name: "dead"}
	if err := r.AddWindow(RateWindow{Start: 0, End: inf(), Factor: 0}); err != nil {
		t.Fatal(err)
	}
	if got := r.FinishTime(0, 1); got < 1e300 {
		t.Errorf("dead resource finished at %g", got)
	}
}

func simProcs() []core.Processor {
	return []core.Processor{
		{Name: "P1", Comm: cost.Linear{PerItem: 1}, Comp: cost.Linear{PerItem: 2}},
		{Name: "P2", Comm: cost.Linear{PerItem: 2}, Comp: cost.Linear{PerItem: 1}},
		{Name: "P3", Comm: cost.Linear{PerItem: 3}, Comp: cost.Linear{PerItem: 3}},
		{Name: "root", Comm: cost.Zero, Comp: cost.Linear{PerItem: 2}},
	}
}

func TestRunMatchesAnalyticTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 20; trial++ {
		p := 1 + rng.Intn(6)
		procs := make([]core.Processor, p)
		dist := make(core.Distribution, p)
		for i := range procs {
			procs[i] = core.Processor{
				Name: "x",
				Comm: cost.Affine{Fixed: rng.Float64(), PerItem: rng.Float64()},
				Comp: cost.Affine{Fixed: rng.Float64(), PerItem: rng.Float64()},
			}
			dist[i] = rng.Intn(40)
		}
		want, err := schedule.Build(procs, dist)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(Config{Procs: procs, Dist: dist})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Makespan-want.Makespan) > 1e-9 {
			t.Fatalf("trial %d: simulated makespan %g != analytic %g", trial, got.Makespan, want.Makespan)
		}
		for i := range want.Procs {
			w, g := want.Procs[i], got.Procs[i]
			if math.Abs(g.Recv.Start-w.Recv.Start) > 1e-9 ||
				math.Abs(g.Recv.End-w.Recv.End) > 1e-9 ||
				math.Abs(g.Comp.End-w.Comp.End) > 1e-9 {
				t.Fatalf("trial %d proc %d: %+v != %+v", trial, i, g, w)
			}
		}
	}
}

func TestRunCPULoadPeakDelaysOnlyThatProcessor(t *testing.T) {
	procs := simProcs()
	dist := core.Distribution{2, 2, 2, 2}
	base, err := Run(Config{Procs: procs, Dist: dist})
	if err != nil {
		t.Fatal(err)
	}
	// Halve P2's CPU from t=0 to t=100 (covering its whole compute).
	loaded, err := Run(Config{
		Procs: procs, Dist: dist,
		CPULoad: map[string][]RateWindow{"P2": {{Start: 0, End: 100, Factor: 0.5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Procs[1].CompTime(), 2*base.Procs[1].CompTime(); math.Abs(got-want) > 1e-9 {
		t.Errorf("loaded P2 compute = %g, want %g", got, want)
	}
	// The load peak does not touch communications, so the other
	// processors' schedules are unchanged.
	for _, i := range []int{0, 2, 3} {
		if math.Abs(loaded.Procs[i].Finish()-base.Procs[i].Finish()) > 1e-9 {
			t.Errorf("processor %d affected by P2's load peak", i)
		}
	}
}

func TestRunLinkDipDelaysSuccessors(t *testing.T) {
	procs := simProcs()
	dist := core.Distribution{2, 2, 2, 2}
	base, err := Run(Config{Procs: procs, Dist: dist})
	if err != nil {
		t.Fatal(err)
	}
	// Halve P1's link during its whole transfer: its comm takes 4
	// instead of 2, and everyone behind it shifts by 2.
	dipped, err := Run(Config{
		Procs: procs, Dist: dist,
		LinkLoad: map[string][]RateWindow{"P1": {{Start: 0, End: 50, Factor: 0.5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := dipped.Procs[0].CommTime(); math.Abs(got-4) > 1e-9 {
		t.Errorf("dipped P1 comm = %g, want 4", got)
	}
	for i := 1; i < 4; i++ {
		shift := dipped.Procs[i].Recv.Start - base.Procs[i].Recv.Start
		if math.Abs(shift-2) > 1e-9 {
			t.Errorf("processor %d shifted by %g, want 2", i, shift)
		}
	}
}

func TestRunNoiseIsReproducible(t *testing.T) {
	procs := simProcs()
	dist := core.Distribution{3, 3, 3, 3}
	cfg := Config{
		Procs: procs, Dist: dist,
		Noise: &Noise{Seed: 7, CommStdDev: 0.1, CompStdDev: 0.1},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("same seed, different makespans: %g vs %g", a.Makespan, b.Makespan)
	}
	cfg.Noise.Seed = 8
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespan == a.Makespan {
		t.Error("different seeds produced identical noise")
	}
}

func TestRunNoiseZeroStdDevIsExact(t *testing.T) {
	procs := simProcs()
	dist := core.Distribution{2, 2, 2, 2}
	want, err := Run(Config{Procs: procs, Dist: dist})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Config{Procs: procs, Dist: dist, Noise: &Noise{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Errorf("zero-stddev noise changed the makespan")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	procs := simProcs()
	if _, err := Run(Config{Procs: procs, Dist: core.Distribution{1}}); err == nil {
		t.Error("mismatched distribution accepted")
	}
	if _, err := Run(Config{
		Procs: procs, Dist: core.Distribution{1, 1, 1, 1},
		CPULoad: map[string][]RateWindow{"P1": {{Start: 0, End: 5, Factor: 0.5}, {Start: 4, End: 6, Factor: 0.5}}},
	}); err == nil {
		t.Error("overlapping load windows accepted")
	}
}

// TestRunStairEffectVisible reproduces Figure 1's qualitative claim:
// with a uniform distribution, receive-start times strictly increase.
func TestRunStairEffectVisible(t *testing.T) {
	procs := simProcs()
	tl, err := Run(Config{Procs: procs, Dist: core.Uniform(4, 12)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tl.Procs)-1; i++ { // root's "receive" is instant
		if tl.Procs[i].Recv.Start <= tl.Procs[i-1].Recv.Start {
			t.Errorf("no stair: proc %d starts at %g, prev at %g",
				i, tl.Procs[i].Recv.Start, tl.Procs[i-1].Recv.Start)
		}
	}
}
