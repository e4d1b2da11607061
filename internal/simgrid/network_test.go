package simgrid

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/platform"
)

// netChain builds siteA - siteB - siteC with the root on siteA, one
// rank on siteB and one on siteC, and unit-friendly link costs.
func netChain() platform.Graph {
	return platform.Graph{
		Name: "netchain",
		Nodes: []platform.Node{
			{Name: "siteA", Machines: []platform.Machine{{Name: "rootm", CPUs: 1, Beta: 0.01}}},
			{Name: "siteB", Machines: []platform.Machine{{Name: "mb", CPUs: 1, Beta: 0.01, Alpha: 1e-5}}},
			{Name: "siteC", Machines: []platform.Machine{{Name: "mc", CPUs: 1, Beta: 0.01, Alpha: 1e-5}}},
		},
		Links: []platform.Link{
			{A: "siteA", B: "siteB", Alpha: 0.01, Latency: 0.5},
			{A: "siteB", B: "siteC", Alpha: 0.01, Latency: 0.5},
		},
		Root: "rootm",
	}
}

func TestBuildNetPlanLinkFaultsFollowRoutes(t *testing.T) {
	g := netChain()
	nodes, _ := g.ProcessorNodes() // [siteB siteC siteA]: mb=0, mc=1, root=2
	np, err := BuildNetPlan(g, nodes, []fault.NetFault{{
		Kind: fault.LinkDegrade, EdgeA: "siteB", EdgeB: "siteC",
		Start: 0, End: 10, Factor: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Routes crossing B-C: root(A)->mc(C) and mb(B)->mc(C).
	if got := np.Slowdown(2, 1, 5); got != 4 {
		t.Errorf("root->mc slowdown = %g, want 4", got)
	}
	if got := np.Slowdown(0, 1, 5); got != 4 {
		t.Errorf("mb->mc slowdown = %g, want 4", got)
	}
	// root(A)->mb(B) does not cross B-C.
	if got := np.Slowdown(2, 0, 5); got != 1 {
		t.Errorf("root->mb slowdown = %g, want 1", got)
	}
	// Outside the window everything is clean.
	if got := np.Slowdown(2, 1, 11); got != 1 {
		t.Errorf("post-window slowdown = %g, want 1", got)
	}

	// A flap on A-B cuts the pairs routed over it, periodically.
	np, err = BuildNetPlan(g, nodes, []fault.NetFault{{
		Kind: fault.LinkFlap, EdgeA: "siteA", EdgeB: "siteB",
		Start: 0, End: 4, Period: 2, Duty: 0.5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if np.Reachable(2, 0, 0.5) || !np.Reachable(2, 0, 1.5) || np.Reachable(2, 0, 2.5) {
		t.Error("flap cut windows wrong for root->mb")
	}
	if np.Reachable(2, 1, 0.5) {
		t.Error("root->mc unaffected by flap on its route")
	}
	if !np.Reachable(0, 1, 0.5) {
		t.Error("mb->mc cut by a flap off its route")
	}
}

func TestBuildNetPlanPartitionCutsTransit(t *testing.T) {
	g := netChain()
	nodes, _ := g.ProcessorNodes() // mb=0, mc=1, root=2
	np, err := BuildNetPlan(g, nodes, []fault.NetFault{{
		Kind: fault.Partition, Site: "siteB", Start: 1, End: 5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// siteB is cut off from everyone...
	if np.Reachable(2, 0, 2) || np.Reachable(1, 0, 2) {
		t.Error("partitioned site still reachable")
	}
	// ...and siteA-siteC, routed through siteB, is cut transitively.
	if np.Reachable(2, 1, 2) {
		t.Error("transit route through partitioned site survived")
	}
	// Before and after the window the pairs heal.
	if !np.Reachable(2, 1, 0.5) || !np.Reachable(2, 0, 5) {
		t.Error("partition active outside its window")
	}
	if !np.Healed(5) {
		t.Error("plan not healed after the window")
	}

	// Co-located ranks never get cut: add a second rank on siteB.
	g2 := netChain()
	g2.Nodes[1].Machines[0].CPUs = 2
	nodes2, _ := g2.ProcessorNodes() // [siteB siteB siteC siteA]
	np2, err := BuildNetPlan(g2, nodes2, []fault.NetFault{{
		Kind: fault.Partition, Site: "siteB", Start: 1, End: 5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !np2.Reachable(0, 1, 2) {
		t.Error("co-located ranks cut by their own site's partition")
	}
}

func TestBuildNetPlanEmptyAndInvalid(t *testing.T) {
	g := netChain()
	nodes, _ := g.ProcessorNodes()
	np, err := BuildNetPlan(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if np.HasFaults() {
		t.Error("empty fault list produced a non-empty plan")
	}
	if _, err := BuildNetPlan(g, nodes, []fault.NetFault{{Kind: fault.Partition}}); err == nil {
		t.Error("invalid fault accepted")
	}
	if _, err := BuildNetPlan(g, []string{"siteA", ""}, []fault.NetFault{{
		Kind: fault.Partition, Site: "siteB", Start: 0, End: 1,
	}}); err == nil {
		t.Error("empty rank node accepted")
	}
}
