package mpi

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fault"
)

// runFTGather runs a fault-tolerant gather where rank r contributes
// contribs[r], returning per rank the gathered slice, report and error.
func runFTGather(t *testing.T, w *World, contribs [][]int) ([][]int, []*GatherReport, []error, []RankStats) {
	t.Helper()
	p := w.Size()
	gathered := make([][]int, p)
	reports := make([]*GatherReport, p)
	gatherErrs := make([]error, p)
	stats, err := Run(w, func(c *Comm) error {
		out, rep, err := FaultTolerantGatherv(c, contribs[c.Rank()])
		gathered[c.Rank()], reports[c.Rank()], gatherErrs[c.Rank()] = out, rep, err
		return nil // errors are inspected by the test, not by Run
	})
	if err != nil {
		t.Fatal(err)
	}
	return gathered, reports, gatherErrs, stats
}

func contribs4() [][]int {
	return [][]int{{0, 1}, {10, 11}, {20, 21}, {30, 31}}
}

func TestFTGathervNoFaultsMatchesGatherv(t *testing.T) {
	contribs := contribs4()

	plain := world4(t)
	plainStats, err := Run(plain, func(c *Comm) error {
		_, err := Gatherv(c, contribs[c.Rank()])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	ft := world4(t)
	ft.SetFaultPlan(nil, testPolicy())
	gathered, reports, gatherErrs, ftStats := runFTGather(t, ft, contribs)
	for r, err := range gatherErrs {
		if err != nil {
			t.Fatalf("rank %d errored: %v", r, err)
		}
	}
	for r := range plainStats {
		if math.Abs(plainStats[r].Finish-ftStats[r].Finish) > 1e-9 {
			t.Errorf("rank %d finish = %g, want Gatherv's %g", r, ftStats[r].Finish, plainStats[r].Finish)
		}
	}
	if want := []int{0, 1, 10, 11, 20, 21, 30, 31}; !intsEqual(gathered[3], want) {
		t.Errorf("root gathered %v, want %v", gathered[3], want)
	}
	for _, r := range []int{0, 1, 2} {
		if gathered[r] != nil {
			t.Errorf("non-root rank %d gathered %v, want nil", r, gathered[r])
		}
	}
	rep := reports[3]
	if !intsEqual(rep.Contributed, []int{0, 1, 2, 3}) || len(rep.Missing) != 0 ||
		rep.Rounds != 1 || rep.Failovers != 0 || rep.Survivors != reports[3].Survivors {
		t.Errorf("failure-free report = %+v", rep)
	}
}

func TestFTGathervContributorCrash(t *testing.T) {
	// Rank 1 crashes at t=3, before its pull ([2, 6] fault-free) can
	// complete: after the retries are exhausted its contribution is
	// reported missing, and the rest of the gather proceeds.
	w := world4(t)
	w.SetFaultPlan(fault.MustPlan(fault.Fault{Kind: fault.Crash, Rank: 1, Start: 3}), testPolicy())
	gathered, reports, gatherErrs, _ := runFTGather(t, w, contribs4())

	if !errors.Is(gatherErrs[1], ErrRankFailed) {
		t.Fatalf("crashed rank error = %v, want ErrRankFailed", gatherErrs[1])
	}
	rep := reports[3]
	if !intsEqual(rep.Contributed, []int{0, 2, 3}) || !intsEqual(rep.Missing, []int{1}) {
		t.Errorf("Contributed, Missing = %v, %v; want [0 2 3], [1]", rep.Contributed, rep.Missing)
	}
	if rep.Timeouts != 3 || rep.Retries != 2 || rep.Failovers != 0 {
		t.Errorf("Timeouts, Retries, Failovers = %d, %d, %d; want 3, 2, 0", rep.Timeouts, rep.Retries, rep.Failovers)
	}
	if want := []int{0, 1, 20, 21, 30, 31}; !intsEqual(gathered[3], want) {
		t.Errorf("root gathered %v, want %v", gathered[3], want)
	}
}

func TestFTGathervContributorCrashAfterConfirm(t *testing.T) {
	// Rank 0's contribution is confirmed at t=2; the machine dies at
	// t=3. Unlike the scatter (where the data dies with the holder), a
	// banked contribution survives at the root — the rank is failed but
	// not missing.
	w := world4(t)
	w.SetFaultPlan(fault.MustPlan(fault.Fault{Kind: fault.Crash, Rank: 0, Start: 3}), testPolicy())
	gathered, reports, gatherErrs, _ := runFTGather(t, w, contribs4())

	if !errors.Is(gatherErrs[0], ErrRankFailed) {
		t.Fatalf("crashed rank error = %v, want ErrRankFailed", gatherErrs[0])
	}
	rep := reports[3]
	if !intsEqual(rep.Contributed, []int{0, 1, 2, 3}) || len(rep.Missing) != 0 {
		t.Errorf("Contributed, Missing = %v, %v; want [0 1 2 3], []", rep.Contributed, rep.Missing)
	}
	if want := []int{0, 1, 10, 11, 20, 21, 30, 31}; !intsEqual(gathered[3], want) {
		t.Errorf("root gathered %v, want %v", gathered[3], want)
	}
	if rep.Survivors == nil {
		t.Fatal("no survivor communicator")
	}
	if got := rep.Survivors.Size(); got != 3 {
		t.Errorf("survivor comm size = %d, want 3", got)
	}
}

func TestFTGathervRootFailoverRecollects(t *testing.T) {
	// The collecting root dies at t=3: rank 0's contribution was
	// confirmed at t=2 but the partial gather dies with the root, so
	// the elected successor — rank 0, the only fresh replica holder —
	// re-collects the surviving contributions. Each lands exactly once:
	// re-collection is idempotent, never duplicating.
	w := world4(t)
	w.SetFaultPlan(fault.MustPlan(fault.Fault{Kind: fault.Crash, Rank: 3, Start: 3}), testPolicy())
	contribs := contribs4()
	gathered, reports, gatherErrs, stats := runFTGather(t, w, contribs)

	if !errors.Is(gatherErrs[3], ErrRankFailed) {
		t.Fatalf("crashed root error = %v, want ErrRankFailed", gatherErrs[3])
	}
	for _, r := range []int{0, 1, 2} {
		if gatherErrs[r] != nil {
			t.Fatalf("survivor %d errored: %v", r, gatherErrs[r])
		}
	}
	rep := reports[0]
	if rep.Failovers != 1 || !intsEqual(rep.RootPath, []int{3, 0}) || rep.FinalRoot() != 0 {
		t.Errorf("Failovers, RootPath = %d, %v; want 1, [3 0]", rep.Failovers, rep.RootPath)
	}
	if !intsEqual(rep.Contributed, []int{0, 1, 2}) || !intsEqual(rep.Missing, []int{3}) {
		t.Errorf("Contributed, Missing = %v, %v; want [0 1 2], [3]", rep.Contributed, rep.Missing)
	}
	if rep.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", rep.Rounds)
	}
	// The new root holds the gather; exactly once despite rank 0's
	// contribution having been confirmed twice (once per root).
	if want := []int{0, 1, 10, 11, 20, 21}; !intsEqual(gathered[0], want) {
		t.Errorf("new root gathered %v, want %v", gathered[0], want)
	}
	for _, r := range []int{1, 2, 3} {
		if gathered[r] != nil {
			t.Errorf("rank %d gathered %v, want nil", r, gathered[r])
		}
	}
	if rep.Survivors == nil || !rep.Survivors.IsRoot() {
		t.Error("rank 0 is not the root of the survivor communicator")
	}
	// The successor's timeline shows the election and the re-collection.
	var failover, regather bool
	for _, s := range stats[0].Spans {
		switch {
		case s.Phase == PhaseFailover:
			failover = true
		case s.Phase == PhaseComm && len(s.Label) >= 8 && s.Label[:8] == "regather":
			regather = true
		}
	}
	if !failover || !regather {
		t.Errorf("failover, regather spans = %v, %v; want both", failover, regather)
	}
}

func TestFTReduceNoFaults(t *testing.T) {
	w := world4(t)
	w.SetFaultPlan(nil, testPolicy())
	var rootSum float64
	_, err := Run(w, func(c *Comm) error {
		v, rep, err := FaultTolerantReduce(c, float64(c.Rank()+1), Sum)
		if err != nil {
			return err
		}
		if c.IsRoot() {
			rootSum = v
		} else if v != 0 {
			t.Errorf("non-root rank %d reduce value = %g, want 0", c.Rank(), v)
		}
		if len(rep.Missing) != 0 {
			t.Errorf("rank %d missing = %v, want none", c.Rank(), rep.Missing)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rootSum != 10 {
		t.Errorf("reduced sum = %g, want 10", rootSum)
	}
}

func TestFTReduceRootFailover(t *testing.T) {
	// The root dies mid-reduce; the successor folds the surviving
	// contributions (ranks 0-2: 1+2+3) and reports the root's own value
	// as missing.
	w := world4(t)
	w.SetFaultPlan(fault.MustPlan(fault.Fault{Kind: fault.Crash, Rank: 3, Start: 3}), testPolicy())
	sums := make([]float64, w.Size())
	reports := make([]*GatherReport, w.Size())
	redErrs := make([]error, w.Size())
	_, err := Run(w, func(c *Comm) error {
		v, rep, err := FaultTolerantReduce(c, float64(c.Rank()+1), Sum)
		sums[c.Rank()], reports[c.Rank()], redErrs[c.Rank()] = v, rep, err
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(redErrs[3], ErrRankFailed) {
		t.Fatalf("crashed root error = %v, want ErrRankFailed", redErrs[3])
	}
	rep := reports[0]
	if rep.FinalRoot() != 0 || !intsEqual(rep.Missing, []int{3}) {
		t.Errorf("FinalRoot, Missing = %d, %v; want 0, [3]", rep.FinalRoot(), rep.Missing)
	}
	if sums[0] != 6 {
		t.Errorf("survivor reduction = %g, want 1+2+3 = 6", sums[0])
	}
}

func TestFTGathervJitteredRetriesDecorrelate(t *testing.T) {
	// Ranks 0 and 1 each lose their first pull to a link drop. Under a
	// jittered policy each contributor retries on its own Stream of the
	// schedule, so the two backoffs differ: retries against one flapping
	// link do not re-synchronize, exactly as in the scatter.
	pol := fault.Policy{
		Timeout: 1, MaxRetries: 2,
		Backoff: fault.Backoff{Base: 0.5, Factor: 2, Cap: 2, Jitter: 0.5, Seed: 42},
	}
	w := world4(t)
	w.SetFaultPlan(fault.MustPlan(
		fault.Fault{Kind: fault.LinkDrop, Rank: 0, Start: 0, End: 0.5},
		fault.Fault{Kind: fault.LinkDrop, Rank: 1, Start: 0, End: 4},
	), pol)
	_, reports, gatherErrs, stats := runFTGather(t, w, contribs4())
	for r, err := range gatherErrs {
		if err != nil {
			t.Fatalf("rank %d errored: %v", r, err)
		}
	}
	if rep := reports[3]; rep.Retries != 2 || len(rep.Missing) != 0 {
		t.Fatalf("report = %+v, want 2 retries and nothing missing", rep)
	}
	waits := map[string]float64{}
	for _, s := range stats[3].Spans {
		if s.Phase == PhaseBackoff {
			waits[s.Label] = s.End - s.Start
		}
	}
	for gr, label := range []string{"backoff←P1", "backoff←P2"} {
		got, ok := waits[label]
		if !ok {
			t.Fatalf("no %q span; backoffs = %v", label, waits)
		}
		if want := pol.Backoff.Stream(int64(gr)).Delay(0); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s waited %g, want its own stream's %g", label, got, want)
		}
	}
	if waits["backoff←P1"] == waits["backoff←P2"] {
		t.Errorf("both contributors backed off %g: the retries share one jitter stream", waits["backoff←P1"])
	}
}

// TestFTGathervNetPartitionTimesOut cuts rank 1 off from the root for
// the whole run: the gather's pulls from it time out and exhaust their
// retries exactly as the scatter's sends to it do, and rank 1 is
// reported missing.
func TestFTGathervNetPartitionTimesOut(t *testing.T) {
	np := fault.NewNetPlan()
	np.AddCut(3, 1, fault.Window{Start: 0, End: 1e6})
	_, sreps, _, _ := runFT(t, netWorld4(t, np), seqData(8), []int{2, 2, 2, 2})
	gathered, greps, gatherErrs, _ := runFTGather(t, netWorld4(t, np), contribs4())

	want := testPolicy().MaxRetries + 1
	if srep := sreps[3]; srep.Timeouts != want || !intsEqual(srep.Failed, []int{1}) {
		t.Fatalf("scatter report = %+v, want rank 1 failed after %d timeouts", srep, want)
	}
	grep := greps[3]
	if grep.Timeouts != want || grep.Retries != want-1 {
		t.Errorf("gather timeouts, retries = %d, %d; want %d, %d", grep.Timeouts, grep.Retries, want, want-1)
	}
	if !intsEqual(grep.Missing, []int{1}) || !intsEqual(grep.Contributed, []int{0, 2, 3}) {
		t.Errorf("gather contributed %v, missing %v; want [0 2 3], [1]", grep.Contributed, grep.Missing)
	}
	if !errors.Is(gatherErrs[1], ErrRankFailed) {
		t.Errorf("rank 1 error = %v, want ErrRankFailed", gatherErrs[1])
	}
	if want := []int{0, 1, 20, 21, 30, 31}; !intsEqual(gathered[3], want) {
		t.Errorf("root gathered %v, want %v", gathered[3], want)
	}
}
