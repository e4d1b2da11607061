package schedule

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
)

func procs4() []core.Processor {
	return []core.Processor{
		{Name: "P1", Comm: cost.Linear{PerItem: 1}, Comp: cost.Linear{PerItem: 2}},
		{Name: "P2", Comm: cost.Linear{PerItem: 2}, Comp: cost.Linear{PerItem: 1}},
		{Name: "P3", Comm: cost.Linear{PerItem: 3}, Comp: cost.Linear{PerItem: 3}},
		{Name: "P4-root", Comm: cost.Zero, Comp: cost.Linear{PerItem: 2}},
	}
}

func TestBuildHandComputed(t *testing.T) {
	tl, err := Build(procs4(), core.Distribution{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// P1: recv [0,2), comp [2,6)
	// P2: recv [2,6), comp [6,8)
	// P3: recv [6,12), comp [12,18)
	// P4: recv [12,12), comp [12,16)
	want := []ProcTimeline{
		{Name: "P1", Items: 2, Recv: Segment{0, 2}, Comp: Segment{2, 6}},
		{Name: "P2", Items: 2, Recv: Segment{2, 6}, Comp: Segment{6, 8}},
		{Name: "P3", Items: 2, Recv: Segment{6, 12}, Comp: Segment{12, 18}},
		{Name: "P4-root", Items: 2, Recv: Segment{12, 12}, Comp: Segment{12, 16}},
	}
	for i, w := range want {
		if tl.Procs[i] != w {
			t.Errorf("proc %d = %+v, want %+v", i, tl.Procs[i], w)
		}
	}
	if tl.Makespan != 18 {
		t.Errorf("makespan = %g, want 18", tl.Makespan)
	}
	if tl.EarliestFinish() != 6 {
		t.Errorf("earliest = %g, want 6", tl.EarliestFinish())
	}
	if tl.LatestFinish() != 18 {
		t.Errorf("latest = %g, want 18", tl.LatestFinish())
	}
}

func TestBuildMatchesCoreFinishTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 25; trial++ {
		p := 1 + rng.Intn(6)
		procs := make([]core.Processor, p)
		dist := make(core.Distribution, p)
		for i := range procs {
			procs[i] = core.Processor{
				Name: "x",
				Comm: cost.Affine{Fixed: rng.Float64(), PerItem: rng.Float64()},
				Comp: cost.Affine{Fixed: rng.Float64(), PerItem: rng.Float64()},
			}
			dist[i] = rng.Intn(50)
		}
		tl, err := Build(procs, dist)
		if err != nil {
			t.Fatal(err)
		}
		want := core.FinishTimes(procs, dist)
		got := tl.FinishTimes()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("trial %d proc %d: timeline finish %g != Eq.(1) %g", trial, i, got[i], want[i])
			}
		}
		if math.Abs(tl.Makespan-core.Makespan(procs, dist)) > 1e-12 {
			t.Fatalf("trial %d: makespan mismatch", trial)
		}
	}
}

func TestBuildShareMismatch(t *testing.T) {
	if _, err := Build(procs4(), core.Distribution{1, 2}); err == nil {
		t.Error("mismatched distribution accepted")
	}
}

func TestSegmentsAreContiguous(t *testing.T) {
	tl, err := Build(procs4(), core.Distribution{3, 1, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	prevRecvEnd := 0.0
	for i, p := range tl.Procs {
		if p.Recv.Start != prevRecvEnd {
			t.Errorf("proc %d reception starts at %g, previous send ended at %g", i, p.Recv.Start, prevRecvEnd)
		}
		if p.Comp.Start != p.Recv.End {
			t.Errorf("proc %d computes at %g, reception ended at %g", i, p.Comp.Start, p.Recv.End)
		}
		prevRecvEnd = p.Recv.End
	}
}

func TestZeroShareProcessor(t *testing.T) {
	tl, err := Build(procs4(), core.Distribution{0, 4, 0, 4})
	if err != nil {
		t.Fatal(err)
	}
	p0 := tl.Procs[0]
	if p0.Recv.Duration() != 0 || p0.Comp.Duration() != 0 {
		t.Errorf("zero-share processor has nonzero activity: %+v", p0)
	}
	if p0.Finish() != 0 {
		t.Errorf("zero-share processor finishes at %g", p0.Finish())
	}
}

func TestIdleAndStairArea(t *testing.T) {
	tl, err := Build(procs4(), core.Distribution{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Idle times: 0, 2, 6, 12.
	wantIdle := []float64{0, 2, 6, 12}
	for i, w := range wantIdle {
		if got := tl.Procs[i].Idle(); got != w {
			t.Errorf("idle[%d] = %g, want %g", i, got, w)
		}
	}
	if got := tl.StairArea(); got != 20 {
		t.Errorf("stair area = %g, want 20", got)
	}
}

func TestStairAreaGrowsWithBadOrdering(t *testing.T) {
	// Putting the slowest link first grows the stair area: everyone
	// behind it waits longer. This is the Figure 3 vs Figure 4 story.
	good := procs4() // ordered by increasing comm cost already
	bad := []core.Processor{good[2], good[1], good[0], good[3]}
	dist := core.Distribution{2, 2, 2, 2}
	tlGood, err := Build(good, dist)
	if err != nil {
		t.Fatal(err)
	}
	tlBad, err := Build(bad, core.Distribution{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tlBad.StairArea() <= tlGood.StairArea() {
		t.Errorf("bad ordering stair area %g not larger than good %g",
			tlBad.StairArea(), tlGood.StairArea())
	}
}

func TestTotalsAndUtilization(t *testing.T) {
	tl, err := Build(procs4(), core.Distribution{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	comm := 0.0
	for _, p := range tl.Procs {
		comm += p.CommTime()
	}
	if got := comm; got != 12 {
		t.Errorf("total comm = %g, want 12", got)
	}
	if got := tl.TotalCompTime(); got != 4+2+6+4 {
		t.Errorf("total comp = %g, want 16", got)
	}
	want := 16.0 / (18 * 4)
	if got := tl.Utilization(); math.Abs(got-want) > 1e-12 {
		t.Errorf("utilization = %g, want %g", got, want)
	}
}

func TestImbalance(t *testing.T) {
	tl, err := Build(procs4(), core.Distribution{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := (18.0 - 6.0) / 18.0
	if got := tl.Imbalance(); math.Abs(got-want) > 1e-12 {
		t.Errorf("imbalance = %g, want %g", got, want)
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl, err := Build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Makespan != 0 || tl.EarliestFinish() != 0 || tl.Imbalance() != 0 || tl.Utilization() != 0 {
		t.Errorf("empty timeline has nonzero metrics: %+v", tl)
	}
}

func TestBalancedTimelineNearZeroImbalance(t *testing.T) {
	procs := procs4()
	res, err := core.Algorithm2(procs, 200)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Build(procs, res.Distribution)
	if err != nil {
		t.Fatal(err)
	}
	// With a balanced distribution the spread among *participating*
	// processors should be small (pruned zero-share processors finish
	// immediately and do not count — here P3's link is slow enough
	// that the optimum drops it, per Theorem 2).
	min, max := math.Inf(1), 0.0
	for _, p := range tl.Procs {
		if p.Items == 0 {
			continue
		}
		f := p.Finish()
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	if (max-min)/max > 0.1 {
		t.Errorf("balanced imbalance among workers = %g", (max-min)/max)
	}
}
