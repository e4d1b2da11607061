package experiment

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig1", "fig2", "fig3", "fig4", "algocost", "quality", "ordering", "bound", "root", "tree", "masterslave", "overlap", "multiround", "sensitivity", "heterogeneity", "hierarchy", "recovery", "solver", "degraded", "serve"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, ok := Get("nonsense"); ok {
		t.Error("unknown id resolved")
	}
}

func TestTable1Calibration(t *testing.T) {
	rep, err := Table1Calibration()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dinadan", "merlin", "leda", "0.009288", "real kernel calibration"} {
		if !strings.Contains(rep.Body, want) {
			t.Errorf("table1 body missing %q", want)
		}
	}
	// The measured kernel beta must be positive and within a couple of
	// orders of magnitude of the paper's per-ray cost.
	var kernelBeta float64
	for _, c := range rep.Comparisons {
		if strings.Contains(c.Metric, "real-kernel") {
			kernelBeta = c.Measured
		}
	}
	if kernelBeta <= 0 || kernelBeta > 1 {
		t.Errorf("kernel beta = %g s/ray, implausible", kernelBeta)
	}
}

func TestFig1Stair(t *testing.T) {
	rep, err := Fig1Stair()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Body, "stair") {
		t.Errorf("fig1 body missing the stair explanation:\n%s", rep.Body)
	}
	for _, name := range []string{"P1", "P4"} {
		if !strings.Contains(rep.Body, name) {
			t.Errorf("fig1 missing %s", name)
		}
	}
}

// comparison finds a comparison row by substring.
func comparison(t *testing.T, rep Report, metric string) Comparison {
	t.Helper()
	for _, c := range rep.Comparisons {
		if strings.Contains(c.Metric, metric) {
			return c
		}
	}
	t.Fatalf("%s: no comparison %q", rep.ID, metric)
	return Comparison{}
}

func TestFig2UniformShape(t *testing.T) {
	rep, err := Fig2Uniform()
	if err != nil {
		t.Fatal(err)
	}
	earliest := comparison(t, rep, "earliest finish")
	latest := comparison(t, rep, "latest finish")
	// Shape: heavy imbalance. The paper's ratio is 259/853 = 0.30; we
	// accept a generous band around it for the simulated platform.
	ratio := earliest.Measured / latest.Measured
	if ratio < 0.15 || ratio > 0.55 {
		t.Errorf("earliest/latest = %g, paper shape is about 0.30", ratio)
	}
	// Absolute scale should be in the paper's ballpark (same cost
	// constants): latest within [600, 1100] s.
	if latest.Measured < 600 || latest.Measured > 1100 {
		t.Errorf("uniform makespan = %g s, paper measured 853 s", latest.Measured)
	}
}

func TestFig3BalancedShape(t *testing.T) {
	rep, err := Fig3Balanced()
	if err != nil {
		t.Fatal(err)
	}
	imb := comparison(t, rep, "imbalance")
	if imb.Measured > 0.06 {
		t.Errorf("balanced imbalance = %g, paper reports ~6%% with measurement noise; simulation should be tighter", imb.Measured)
	}
	speedup := comparison(t, rep, "uniform/balanced")
	if speedup.Measured < 1.5 {
		t.Errorf("speedup = %gx, paper reports about 2x", speedup.Measured)
	}
	latest := comparison(t, rep, "latest finish")
	if latest.Measured < 300 || latest.Measured > 550 {
		t.Errorf("balanced makespan = %g s, paper measured 430 s", latest.Measured)
	}
}

func TestFig4AscendingShape(t *testing.T) {
	rep, err := Fig4Ascending()
	if err != nil {
		t.Fatal(err)
	}
	penalty := comparison(t, rep, "penalty vs descending")
	if penalty.Measured <= 0 {
		t.Errorf("ascending order not slower than descending: %g s", penalty.Measured)
	}
	stair := comparison(t, rep, "stair area ratio")
	if stair.Measured <= 1 {
		t.Errorf("ascending stair area not larger: ratio %g", stair.Measured)
	}
}

func TestAlgoCostScaledDown(t *testing.T) {
	// The heuristic's cost barely depends on n while Algorithm 2's
	// grows with it, so the runtime ordering the paper reports at
	// 817,101 items only shows once n is large enough. On a 2-vCPU
	// host the heuristic takes ~2-4 ms at p = 16, nearly all of it the
	// exact LP (its rounding takes 30-50 µs); Algorithm 2 takes
	// ~18-23 ms at 100,000 items, 5-10x longer.
	rep, err := AlgoCostWith([]int{100, 200, 400, 800}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	a1 := comparison(t, rep, "Algorithm 1")
	a2 := comparison(t, rep, "Algorithm 2")
	h := comparison(t, rep, "heuristic")
	if !(a1.Measured > a2.Measured && a2.Measured > h.Measured) {
		t.Errorf("runtime ordering violated: Alg1 %g, Alg2 %g, heuristic %g",
			a1.Measured, a2.Measured, h.Measured)
	}
	if !strings.Contains(rep.Body, "empirical exponent") {
		t.Error("missing power-law fit")
	}
}

func TestHeuristicQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the exact DP at n=200k")
	}
	rep, err := HeuristicQuality()
	if err != nil {
		t.Fatal(err)
	}
	tail := comparison(t, rep, "relative error at n=200000")
	if tail.Measured > 2e-5 {
		t.Errorf("heuristic relative error %g at n=200000, paper reports <6e-6 at n=817101", tail.Measured)
	}
	worst := comparison(t, rep, "max relative error")
	if worst.Measured > 1e-2 {
		t.Errorf("heuristic relative error %g even at small n", worst.Measured)
	}
}

func TestOrderingPolicies(t *testing.T) {
	rep, err := OrderingPolicies()
	if err != nil {
		t.Fatal(err)
	}
	penalty := comparison(t, rep, "asc - desc")
	if penalty.Measured <= 0 {
		t.Errorf("ascending order not worse: %g", penalty.Measured)
	}
	policyRatio := comparison(t, rep, "policy vs best permutation")
	if math.Abs(policyRatio.Measured-1) > 1e-9 {
		t.Errorf("Theorem 3 policy not optimal on the 5-proc sub-platform: ratio %g", policyRatio.Measured)
	}
}

func TestGuaranteeBoundCheck(t *testing.T) {
	rep, err := GuaranteeBoundCheck()
	if err != nil {
		t.Fatal(err)
	}
	v := comparison(t, rep, "violations")
	if v.Measured != 0 {
		t.Errorf("%g Eq. (4) violations", v.Measured)
	}
}

func TestRootChoice(t *testing.T) {
	rep, err := RootChoice()
	if err != nil {
		t.Fatal(err)
	}
	best := comparison(t, rep, "best root")
	if best.Measured != 1 {
		t.Errorf("best root is not the data holder:\n%s", rep.Body)
	}
	// All 7 machines evaluated.
	for _, m := range platform.Table1().Machines {
		if !strings.Contains(rep.Body, m.Name) {
			t.Errorf("candidate %s missing from the root table", m.Name)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := Report{
		ID:    "x",
		Title: "t",
		Body:  "body\n",
		Comparisons: []Comparison{
			{Metric: "m", Paper: 1, Measured: 2, Unit: "s", Note: "n"},
		},
	}
	s := rep.String()
	for _, want := range []string{"== x: t ==", "body", "paper vs measured", "measured"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	keys := sortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("sortedKeys = %v", keys)
	}
}

func TestFlatVsBinomial(t *testing.T) {
	rep, err := FlatVsBinomial()
	if err != nil {
		t.Fatal(err)
	}
	bcastHomo := comparison(t, rep, "bcast, homogeneous")
	if bcastHomo.Measured >= 1 {
		t.Errorf("binomial bcast not faster on a homogeneous cluster: ratio %g", bcastHomo.Measured)
	}
	scatterHomo := comparison(t, rep, "scatterv, homogeneous")
	scatterGrid := comparison(t, rep, "scatterv, table-1 grid")
	if scatterHomo.Measured <= 1 {
		t.Errorf("flat scatter not faster on a homogeneous cluster: ratio %g", scatterHomo.Measured)
	}
	if scatterGrid.Measured <= scatterHomo.Measured {
		t.Errorf("grid relays did not worsen the binomial scatter: %g <= %g",
			scatterGrid.Measured, scatterHomo.Measured)
	}
}

func TestStaticVsDynamic(t *testing.T) {
	rep, err := StaticVsDynamic()
	if err != nil {
		t.Fatal(err)
	}
	calib := comparison(t, rep, "calibrated: dynamic/static")
	if calib.Measured <= 1 {
		t.Errorf("dynamic beat static on a calibrated grid: ratio %g", calib.Measured)
	}
	peak := comparison(t, rep, "load peak: dynamic/static")
	if peak.Measured >= 1 {
		t.Errorf("dynamic lost to a blind static distribution under a surprise load peak: ratio %g", peak.Measured)
	}
}

func TestRootOverlap(t *testing.T) {
	rep, err := RootOverlap()
	if err != nil {
		t.Fatal(err)
	}
	grid := comparison(t, rep, "overlap gain, table-1")
	if grid.Measured < 0 || grid.Measured > 0.02 {
		t.Errorf("table-1 overlap gain = %g, want tiny (compute-bound)", grid.Measured)
	}
	comm := comparison(t, rep, "overlap gain, comm-bound")
	if comm.Measured <= grid.Measured {
		t.Errorf("comm-bound gain %g not larger than compute-bound %g", comm.Measured, grid.Measured)
	}
}

func TestMultiRoundStudy(t *testing.T) {
	rep, err := MultiRoundStudy()
	if err != nil {
		t.Fatal(err)
	}
	grid := comparison(t, rep, "table-1 grid")
	if grid.Measured < 0 || grid.Measured > 0.05 {
		t.Errorf("table-1 multi-round gain = %g, want near zero", grid.Measured)
	}
	comm := comparison(t, rep, "comm-bound")
	if comm.Measured <= grid.Measured {
		t.Errorf("comm-bound gain %g not larger than grid gain %g", comm.Measured, grid.Measured)
	}
}

func TestCalibrationSensitivity(t *testing.T) {
	rep, err := CalibrationSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	at10 := comparison(t, rep, "10% error")
	// Degradation is roughly proportional to the error; allow slack
	// over the ~10% expectation for the randomized perturbations.
	if at10.Measured < 0 || at10.Measured > 0.15 {
		t.Errorf("degradation at 10%% error = %g, want roughly proportional", at10.Measured)
	}
	at50 := comparison(t, rep, "50% error")
	if at50.Measured < at10.Measured {
		t.Errorf("degradation not monotone: %g at 50%% vs %g at 10%%", at50.Measured, at10.Measured)
	}
}

func TestRecovery(t *testing.T) {
	rep, err := Recovery()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fault-free", "transient-drop", "worker-crash", "root-crash-early", "root-crash-late"} {
		if !strings.Contains(rep.Body, want) {
			t.Errorf("recovery body missing scenario %q", want)
		}
	}
	for _, row := range rep.Doc.(recoveryDoc).Scenarios {
		if row.Name == "transient-drop" && row.Retries < 1 {
			t.Errorf("transient drop recovered without a retry: %+v", row)
		}
	}
	early := comparison(t, rep, "root crash early")
	if early.Measured <= 0 {
		t.Errorf("early root crash recovered for free: overhead %g%%", early.Measured)
	}
	late := comparison(t, rep, "root crash late")
	if late.Measured <= 0 || late.Measured >= early.Measured {
		t.Errorf("late root crash overhead %g%% not between 0 and the early crash's %g%%: "+
			"a completed scatter should make recovery cheaper", late.Measured, early.Measured)
	}
	fo := comparison(t, rep, "failovers")
	if fo.Measured < 1 {
		t.Errorf("early root crash elected no new root: failovers %g", fo.Measured)
	}
}

func TestDegraded(t *testing.T) {
	rep, err := Degraded()
	if err != nil {
		t.Fatal(err)
	}
	for _, sites := range degradedSizes {
		c := comparison(t, rep, fmt.Sprintf("%d sites", sites))
		// Diffusion must stay in the same ballpark as exact recovery.
		// Negative is fine — the exact DP optimizes a cost model the
		// degradation has made stale, so diffusion can win outright.
		if c.Measured < -60 || c.Measured > 100 {
			t.Errorf("%d sites: diffuse overhead %g%% out of the plausible range", sites, c.Measured)
		}
	}
	worst := comparison(t, rep, "solver ratio")
	if worst.Measured <= 0 || worst.Measured > 3 {
		t.Errorf("worst diffuse/exact solver ratio %g, documented band is 3x", worst.Measured)
	}
}

func TestMarkdown(t *testing.T) {
	reports := []Report{
		{ID: "a", Title: "first", Body: "body-a\n",
			Comparisons: []Comparison{{Metric: "m", Paper: 1, Measured: 2, Unit: "s", Note: "n"}}},
		{ID: "b", Title: "second", Body: "body-b\n"},
	}
	md := Markdown(reports)
	for _, want := range []string{
		"# Experiment results", "## a — first", "## b — second",
		"| m | 1 s | 2 s | n |", "body-a", "body-b",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestHeterogeneityScaling(t *testing.T) {
	rep, err := HeterogeneityScaling()
	if err != nil {
		t.Fatal(err)
	}
	s1 := comparison(t, rep, "spread 1")
	// Even a homogeneous platform gains a sliver (~3%): earlier-served
	// processors can absorb a few extra items while later ones wait on
	// the serialized port.
	if s1.Measured < 0.999 || s1.Measured > 1.1 {
		t.Errorf("homogeneous speedup = %g, want ~1", s1.Measured)
	}
	s4 := comparison(t, rep, "spread 4")
	s16 := comparison(t, rep, "spread 16")
	if s4.Measured < 1.3 {
		t.Errorf("spread-4 speedup = %g, paper's testbed showed ~2x", s4.Measured)
	}
	if s16.Measured <= s4.Measured {
		t.Errorf("speedup not increasing with heterogeneity: %g at 16x vs %g at 4x",
			s16.Measured, s4.Measured)
	}
}

func TestHierarchicalScatter(t *testing.T) {
	rep, err := HierarchicalScatter()
	if err != nil {
		t.Fatal(err)
	}
	zero := comparison(t, rep, "zero latency")
	high := comparison(t, rep, "5s latency")
	if high.Measured <= zero.Measured {
		t.Errorf("hierarchy saving did not grow with latency: %g at 5s vs %g at 0",
			high.Measured, zero.Measured)
	}
	if high.Measured <= 0 {
		t.Errorf("hierarchy never wins even at 5s/message WAN latency: %g", high.Measured)
	}
	if zero.Measured > 0.5 {
		t.Errorf("hierarchy 'wins' %g s at zero latency; the flat scatter should be fine there",
			zero.Measured)
	}
}

func TestServeScaledDown(t *testing.T) {
	// runServe fails on any answer that is not bit-identical to its
	// Algorithm 2 solve, in either sweep.
	doc, err := runServe(2)
	if err != nil {
		t.Fatal(err)
	}
	if doc.DistinctKeys != 8 {
		t.Errorf("distinct keys %d, want 8 (2 platforms x 4 item counts)", doc.DistinctKeys)
	}
	if !doc.WarmRestartAllStore {
		t.Error("warm sweep answered some key outside the recovered store")
	}
	if doc.RecoveredPlans != doc.DistinctKeys {
		t.Errorf("recovered %d plans from the torn WAL, want %d", doc.RecoveredPlans, doc.DistinctKeys)
	}
}

func TestSolverScaledDown(t *testing.T) {
	doc, err := runSolver(SolverOptions{Items: 4000})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]solverRow{}
	for _, row := range doc.Rows {
		names[row.Name] = row
		if row.IdenticalToFresh != nil && !*row.IdenticalToFresh {
			t.Errorf("%s: not bit-identical to the fresh solve", row.Name)
		}
		if row.Seconds < 0 {
			t.Errorf("%s: negative duration %g", row.Name, row.Seconds)
		}
	}
	for _, want := range []string{
		"algorithm2_cold", "algorithm2_parallel_w1", "plan_build_cold",
		"certified_cold",
		"fresh_resolve_first_served_crash", "warm_resolve_first_served_crash",
		"fresh_resolve_mid_crash", "warm_resolve_mid_crash",
		"engine_cold_solve", "engine_cache_hit", "engine_warm_resolve",
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("missing row %q", want)
		}
	}
	if c := names["certified_cold"]; c.IdenticalToFresh == nil || !(c.ExitMargin > 0) {
		t.Errorf("certified_cold fields off: %+v", c)
	}
	// The pure-suffix warm resolve does no DP work at all; even at this
	// tiny scale it must beat the fresh re-solve.
	if doc.SpeedupWarmResolveVsCold <= 1 {
		t.Errorf("warm resolve speedup %g, want > 1", doc.SpeedupWarmResolveVsCold)
	}
	if doc.SpeedupCacheHitVsCold <= 1 {
		t.Errorf("cache hit speedup %g, want > 1", doc.SpeedupCacheHitVsCold)
	}
	if doc.Items != 4000 || doc.Processors != 16 {
		t.Errorf("doc header off: items %d, processors %d", doc.Items, doc.Processors)
	}
}
