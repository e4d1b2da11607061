package fault

import (
	"math"
	"testing"
)

func TestNetFaultValidate(t *testing.T) {
	cases := []struct {
		name string
		f    NetFault
		ok   bool
	}{
		{"degrade-ok", NetFault{Kind: LinkDegrade, EdgeA: "a", EdgeB: "b", Start: 0, End: 1, Factor: 2}, true},
		{"degrade-low-factor", NetFault{Kind: LinkDegrade, EdgeA: "a", EdgeB: "b", Start: 0, End: 1, Factor: 0.5}, false},
		{"degrade-no-edge", NetFault{Kind: LinkDegrade, Start: 0, End: 1, Factor: 2}, false},
		{"flap-ok", NetFault{Kind: LinkFlap, EdgeA: "a", EdgeB: "b", Start: 0, End: 10, Period: 2, Duty: 0.5}, true},
		{"flap-bad-duty", NetFault{Kind: LinkFlap, EdgeA: "a", EdgeB: "b", Start: 0, End: 10, Period: 2, Duty: 1}, false},
		{"flap-bad-period", NetFault{Kind: LinkFlap, EdgeA: "a", EdgeB: "b", Start: 0, End: 10, Period: 0, Duty: 0.5}, false},
		{"partition-ok", NetFault{Kind: Partition, Site: "remote", Start: 1, End: 2}, true},
		{"partition-no-site", NetFault{Kind: Partition, Start: 1, End: 2}, false},
		{"inverted-window", NetFault{Kind: Partition, Site: "s", Start: 2, End: 2}, false},
		{"nan-start", NetFault{Kind: Partition, Site: "s", Start: math.NaN(), End: 2}, false},
	}
	for _, tc := range cases {
		err := tc.f.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid fault accepted", tc.name)
		}
	}
}

func TestNetFaultDownWindows(t *testing.T) {
	flap := NetFault{Kind: LinkFlap, EdgeA: "a", EdgeB: "b", Start: 0, End: 10, Period: 4, Duty: 0.5}
	ws := flap.DownWindows()
	want := []Window{{0, 2}, {4, 6}, {8, 10}}
	if len(ws) != len(want) {
		t.Fatalf("DownWindows() = %v, want %v", ws, want)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("window %d = %v, want %v", i, ws[i], want[i])
		}
	}
	// The last down phase is clipped to the flap window.
	flap.End = 9
	ws = flap.DownWindows()
	if last := ws[len(ws)-1]; last.End != 9 {
		t.Errorf("clipped last window = %v, want End 9", last)
	}
	// Non-flaps expand to their single window.
	part := NetFault{Kind: Partition, Site: "s", Start: 3, End: 7}
	if ws := part.DownWindows(); len(ws) != 1 || ws[0] != (Window{3, 7}) {
		t.Errorf("partition DownWindows() = %v, want [{3 7}]", ws)
	}
}

func TestNetPlanQueries(t *testing.T) {
	np := NewNetPlan()
	np.AddCut(0, 2, Window{Start: 1, End: 3})
	np.AddCut(2, 0, Window{Start: 5, End: 6}) // order-insensitive keying
	np.AddSlow(1, 2, FactorWindow{Window: Window{Start: 2, End: 4}, Factor: 3})

	if !np.Reachable(0, 2, 0.5) || np.Reachable(0, 2, 1) || np.Reachable(2, 0, 2.9) {
		t.Error("cut window not honored")
	}
	if !np.Reachable(0, 2, 3) || np.Reachable(0, 2, 5.5) {
		t.Error("second cut window wrong")
	}
	if !np.Reachable(0, 1, 1) {
		t.Error("unrelated pair affected")
	}
	if !np.CutDuring(0, 2, 0, 1.5) || np.CutDuring(0, 2, 3, 4.5) || !np.CutDuring(0, 2, 4, 5) {
		t.Error("CutDuring overlap logic wrong")
	}
	if got := np.Slowdown(1, 2, 3); got != 3 {
		t.Errorf("Slowdown(1,2,3) = %g, want 3", got)
	}
	if got := np.Slowdown(1, 2, 4); got != 1 {
		t.Errorf("Slowdown after window = %g, want 1", got)
	}
	if np.Healed(4) {
		t.Error("Healed(4) with a cut ending at 6")
	}
	if !np.Healed(6) {
		t.Error("not Healed(6) after every cut passed")
	}
}

func TestNetPlanNilSafe(t *testing.T) {
	var np *NetPlan
	if !np.Reachable(0, 1, 0) || np.CutDuring(0, 1, 0, 10) || np.Slowdown(0, 1, 0) != 1 {
		t.Error("nil NetPlan must report a perfect network")
	}
	if !np.Healed(0) || np.HasFaults() {
		t.Error("nil NetPlan derived queries wrong")
	}
}

func TestNetPlanAbuttingCuts(t *testing.T) {
	// Two abutting cut windows (a flap phase ending where a partition
	// begins) leave no reachable instant between them.
	np := NewNetPlan()
	np.AddCut(0, 1, Window{Start: 1, End: 2})
	np.AddCut(0, 1, Window{Start: 2, End: 4})
	if np.Reachable(0, 1, 1.5) || np.Reachable(0, 1, 2) || np.Reachable(0, 1, 3.9) {
		t.Error("reachable inside abutting cuts")
	}
	if !np.CutDuring(0, 1, 1.5, 3.5) || !np.Reachable(0, 1, 4) || np.Healed(3.9) || !np.Healed(4) {
		t.Error("abutting cuts must heal together at 4")
	}
}

func TestRandomNetDeterministicAndValid(t *testing.T) {
	cfg := RandomNetConfig{
		Seed:          7,
		Sites:         []string{"a", "b", "c"},
		RootSite:      "a",
		Edges:         [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}},
		Horizon:       100,
		PartitionProb: 0.9,
		DegradeProb:   0.5,
		FlapProb:      0.9,
		MaxFactor:     4,
	}
	fs1 := RandomNet(cfg)
	fs2 := RandomNet(cfg)
	if len(fs1) == 0 {
		t.Fatal("high probabilities drew no faults")
	}
	if len(fs1) != len(fs2) {
		t.Fatalf("replay drew %d faults, then %d", len(fs1), len(fs2))
	}
	for i := range fs1 {
		if fs1[i] != fs2[i] {
			t.Fatalf("fault %d differs between replays: %+v vs %+v", i, fs1[i], fs2[i])
		}
		if err := fs1[i].Validate(); err != nil {
			t.Errorf("fault %d invalid: %v", i, err)
		}
		if fs1[i].Kind == Partition && fs1[i].Site == "a" {
			t.Errorf("fault %d partitions the exempt root site", i)
		}
	}
}
