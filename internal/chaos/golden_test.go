package chaos

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/platform"
)

var update = flag.Bool("update", false, "rewrite testdata/ft_timeline.golden from the current code")

const goldenTimeline = "testdata/ft_timeline.golden"

// hexf renders a float exactly, so the digest catches a one-ulp drift.
func hexf(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// renderRun writes everything a fault-tolerant collective decides about
// one chaos run: every rank's timeline and every scatter and gather
// report, ledgers included.
func renderRun(res *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total-loss %v makespan %s recomputes %d\n", res.TotalLoss, hexf(res.Makespan), res.Recomputes)
	for _, rs := range res.Stats {
		fmt.Fprintf(&sb, "rank %d %s finish %s items %d\n", rs.Rank, rs.Name, hexf(rs.Finish), rs.ItemsReceived)
		for _, s := range rs.Spans {
			fmt.Fprintf(&sb, "  %s %s %s %q\n", s.Phase, hexf(s.Start), hexf(s.End), s.Label)
		}
	}
	for i, s := range res.Scatters {
		fmt.Fprintf(&sb, "scatter %d planned %v final %v failed %v retries %d timeouts %d rounds %d failovers %d roots %v\n",
			i, s.Planned, s.Final, s.Failed, s.Retries, s.Timeouts, s.Rounds, s.Failovers, s.RootPath)
		for _, rb := range s.Rebalances {
			fmt.Fprintf(&sb, "  rebalance round %d root %d items %d ranks %v dist %v mode %s adj %v\n",
				rb.Round, rb.Root, rb.Items, rb.Ranks, rb.Dist, rb.Mode, rb.Adjacency)
		}
		sb.Write(s.Ledger.Encode())
	}
	for i, g := range res.Gathers {
		fmt.Fprintf(&sb, "gather %d contributed %v missing %v retries %d timeouts %d rounds %d failovers %d roots %v\n",
			i, g.Contributed, g.Missing, g.Retries, g.Timeouts, g.Rounds, g.Failovers, g.RootPath)
		sb.Write(g.Ledger.Encode())
	}
	return sb.String()
}

// goldenCase is one named run of the sweep; want lists span labels the
// run must contain, so a case cannot silently stop reaching the path
// it pins.
type goldenCase struct {
	name string
	cfg  Config
	want []string
}

// table1Config runs the pipeline on the paper's Table 1 grid, root
// last, at a scale where every fault kind lands inside the run.
func table1Config(t *testing.T, seed int64) Config {
	t.Helper()
	procs, err := platform.Table1().ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Seed:           seed,
		Procs:          procs,
		Root:           len(procs) - 1,
		Items:          600,
		MaxSlow:        4,
		ForceRootCrash: -1,
		Policy: fault.Policy{
			Timeout:    0.05,
			MaxRetries: 3,
			Backoff:    fault.Backoff{Base: 0.02, Factor: 2, Cap: 0.1},
		},
	}
}

// rootSpan runs cfg and returns the first span on the root's timeline
// whose label starts with prefix.
func rootSpan(t *testing.T, cfg Config, prefix string) mpi.Span {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Stats[cfg.Root].Spans {
		if strings.HasPrefix(s.Label, prefix) {
			return s
		}
	}
	t.Fatalf("no root span labelled %q…", prefix)
	return mpi.Span{}
}

// rootCrashCases time a crash of the initial root to land inside the
// root's first transfer, timeout and backoff of the scatter (arrow →)
// and of the gather (arrow ←). A link drop on rank 1 covering its
// first attempt supplies the timeout and the backoff; a crash inside a
// lost attempt's timeout cuts the timeout, wherever the transfer would
// have ended (see TestRootCrashInLostAttemptCutsTimeout).
func rootCrashCases(t *testing.T) []goldenCase {
	base := testConfig(7, 4, 24)
	base.Policy = fault.Policy{
		Timeout:    10,
		MaxRetries: 2,
		Backoff:    fault.Backoff{Base: 2, Factor: 2, Cap: 8},
	}
	quiet := rootSpan(t, base, "send→M1")
	pull := rootSpan(t, base, "recv←M1")

	var out []goldenCase
	for _, leg := range []struct {
		arrow string
		first mpi.Span // the root's first transfer to or from M1
	}{{"→", quiet}, {"←", pull}} {
		dropped := base
		dropped.ExtraFaults = []fault.Fault{{
			Kind: fault.LinkDrop, Rank: 1, Start: leg.first.Start, End: leg.first.End,
		}}
		for _, phase := range []string{"timeout", "backoff", "transfer"} {
			cfg := dropped
			var at mpi.Span
			switch phase {
			case "transfer":
				cfg = base
				at = leg.first
			default:
				at = rootSpan(t, dropped, phase+leg.arrow+"M1")
			}
			cfg.ExtraFaults = append(append([]fault.Fault(nil), cfg.ExtraFaults...), fault.Fault{
				Kind: fault.Crash, Rank: cfg.Root, Start: at.Start + 0.75*(at.End-at.Start),
			})
			label := at.Label + " (cut)"
			if phase != "transfer" {
				label = phase + leg.arrow + "M1 (cut)"
			}
			out = append(out, goldenCase{
				name: fmt.Sprintf("root-crash-in-%s%s", phase, leg.arrow),
				cfg:  cfg,
				want: []string{label},
			})
		}
	}
	return out
}

// TestRootCrashInLostAttemptCutsTimeout pins the booking rule for a
// root crash during a lost attempt: the supervisor books a lost
// attempt as a timeout [start, start+Timeout], so a crash inside that
// span cuts the timeout, even while the lost transfer itself would
// still be under way. With testConfig's policy (1 s timeout) the
// transfer to M1 takes 5 s from t = 5; a link drop loses it, and the
// crash-free run books timeout→M1 #1 on [5, 6]. A root crash at 5.5 s
// must book timeout→M1 (cut) on [5, 5.5], not send→M1 (cut).
func TestRootCrashInLostAttemptCutsTimeout(t *testing.T) {
	base := testConfig(7, 4, 24)
	send := rootSpan(t, base, "send→M1")
	dropped := base
	dropped.ExtraFaults = []fault.Fault{{Kind: fault.LinkDrop, Rank: 1, Start: send.Start, End: send.End}}
	if to := rootSpan(t, dropped, "timeout→M1"); to.Start != 5 || to.End != 6 || send.End != 10 {
		t.Fatalf("crash-free run: send→M1 %+v, first timeout %+v; want the transfer on [5, 10] and the timeout on [5, 6]", send, to)
	}
	crashed := dropped
	crashed.ExtraFaults = append(append([]fault.Fault(nil), dropped.ExtraFaults...),
		fault.Fault{Kind: fault.Crash, Rank: base.Root, Start: 5.5})
	res, err := Run(crashed)
	if err != nil {
		t.Fatal(err)
	}
	var cut []mpi.Span
	for _, s := range res.Stats[base.Root].Spans {
		if strings.HasSuffix(s.Label, "(cut)") {
			cut = append(cut, s)
		}
	}
	want := mpi.Span{Phase: mpi.PhaseTimeout, Start: 5, End: 5.5, Label: "timeout→M1 (cut)"}
	if len(cut) != 1 || cut[0] != want {
		t.Fatalf("cut spans %+v, want exactly %+v", cut, want)
	}
}

// TestDeliveredTransferOutlivesTimeout pins DESIGN §7's rule that
// Policy.Timeout bounds only lost attempts: in a run with no crashes
// and no drops, testConfig's transfers take 5 s or more against its
// 1 s timeout, and every one is delivered whole. Neither the scatter
// nor the gather may count a timeout or a retry, and each transfer the
// root books (send→ for the scatter, recv← for the gather) must be
// longer than the timeout.
func TestDeliveredTransferOutlivesTimeout(t *testing.T) {
	cfg := testConfig(7, 4, 24)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scatters) != 1 || len(res.Gathers) != 1 {
		t.Fatalf("scatters, gathers = %d, %d; want 1, 1", len(res.Scatters), len(res.Gathers))
	}
	for name, sv := range map[string]mpi.Supervision{"scatter": res.Scatters[0].Supervision, "gather": res.Gathers[0].Supervision} {
		if sv.Timeouts != 0 || sv.Retries != 0 {
			t.Errorf("%s: Timeouts, Retries = %d, %d; want 0, 0", name, sv.Timeouts, sv.Retries)
		}
	}
	for _, prefix := range []string{"send→", "recv←"} {
		n := 0
		for _, s := range res.Stats[cfg.Root].Spans {
			if strings.HasPrefix(s.Label, "timeout") {
				t.Errorf("crash-free run booked %+v", s)
			}
			if !strings.HasPrefix(s.Label, prefix) {
				continue
			}
			n++
			if s.Phase != mpi.PhaseComm || s.End-s.Start <= cfg.Policy.Timeout {
				t.Errorf("delivered transfer %+v: want a comm span longer than the %g s timeout", s, cfg.Policy.Timeout)
			}
		}
		if n != len(cfg.Procs)-1 {
			t.Errorf("root booked %d %s transfers, want %d", n, prefix, len(cfg.Procs)-1)
		}
	}
}

func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	// Table 1 grid under the crash / drop / slow mixes, with and
	// without a forced early root crash.
	mixes := []struct {
		name              string
		crash, drop, slow float64
		forcedRootCrashAt float64
	}{
		{"quiet", 0, 0, 0, -1},
		{"crash", 0.3, 0, 0, -1},
		{"drop", 0, 0.8, 0, -1},
		{"slow", 0, 0, 0.8, -1},
		{"mixed", 0.2, 0.3, 0.3, -1},
		{"mixed-root-crash", 0.2, 0.3, 0.3, 0.1},
	}
	for _, m := range mixes {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := table1Config(t, seed)
			cfg.CrashProb, cfg.DropProb, cfg.SlowProb = m.crash, m.drop, m.slow
			cfg.ForceRootCrash = m.forcedRootCrashAt
			cases = append(cases, goldenCase{name: fmt.Sprintf("table1-%s-%d", m.name, seed), cfg: cfg})
		}
	}
	// The small heterogeneous grid, whose transfers outlast the retry
	// policy's timeouts, under the fuzz corpus's fault mixes.
	for seed := int64(0); seed < 6; seed++ {
		cfg := testConfig(seed, 5, 48)
		cfg.CrashProb, cfg.DropProb, cfg.SlowProb = 0.3, 0.4, 0.3
		if seed%2 == 1 {
			cfg.ForceRootCrash = 0.1
		}
		cases = append(cases, goldenCase{name: fmt.Sprintf("small-mixed-%d", seed), cfg: cfg})
	}
	cases = append(cases, rootCrashCases(t)...)
	// The routed grid under network faults: the scripted degraded
	// scenarios and a seeded sweep with rank crashes on half the seeds.
	cases = append(cases,
		goldenCase{name: "net-partition", cfg: degradedConfig(21, 24, []fault.NetFault{
			{Kind: fault.Partition, Site: "siteB", Start: 0.5, End: 200},
		})},
		goldenCase{name: "net-flap", cfg: degradedConfig(24, 24, []fault.NetFault{
			{Kind: fault.LinkFlap, EdgeA: "siteA", EdgeB: "siteB", Start: 0, End: 5, Period: 1, Duty: 0.3},
		})},
		goldenCase{name: "net-degrade", cfg: degradedConfig(27, 24, []fault.NetFault{
			{Kind: fault.LinkDegrade, EdgeA: "siteA", EdgeB: "siteB", Start: 0, End: 100, Factor: 3},
		})},
	)
	sites := []string{"siteB", "siteC"}
	edges := [][2]string{{"siteA", "siteB"}, {"siteB", "siteC"}, {"siteA", "siteC"}}
	for seed := int64(0); seed < 12; seed++ {
		faults := fault.RandomNet(fault.RandomNetConfig{
			Seed: seed, Sites: sites, RootSite: "siteA", Edges: edges, Horizon: 12,
			PartitionProb: 0.4, DegradeProb: 0.4, FlapProb: 0.4, MaxFactor: 4,
		})
		cfg := degradedConfig(seed, 16+int(seed%3)*8, faults)
		if seed%2 == 1 {
			cfg.CrashProb = 0.3
			cfg.Horizon = 12
		}
		cases = append(cases, goldenCase{name: fmt.Sprintf("net-random-%d", seed), cfg: cfg})
	}
	return cases
}

// TestFTTimelineGolden pins the fault-tolerant scatter and gather bit
// for bit: a seeded sweep of chaos runs is rendered (every span as a
// hex float with its label, every report with its ledger) and each
// run's SHA-256 must match the committed digest. Regenerate with
// `go test ./internal/chaos -run TestFTTimelineGolden -update` only
// when a behaviour change is intended.
func TestFTTimelineGolden(t *testing.T) {
	var lines []string
	for _, gc := range goldenCases(t) {
		res, err := Run(gc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		for _, want := range gc.want {
			found := false
			for _, rs := range res.Stats {
				for _, s := range rs.Spans {
					found = found || s.Label == want
				}
			}
			if !found {
				t.Errorf("%s: no span labelled %q", gc.name, want)
			}
		}
		lines = append(lines, fmt.Sprintf("%s %x", gc.name, sha256.Sum256([]byte(renderRun(res)))))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.FromSlash(goldenTimeline)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, sum, _ := strings.Cut(l, " ")
		want[name] = sum
	}
	var diffs []string
	for _, l := range lines {
		name, sum, _ := strings.Cut(l, " ")
		if want[name] != sum {
			diffs = append(diffs, name)
		}
		delete(want, name)
	}
	for name := range want {
		diffs = append(diffs, name+" (gone)")
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Errorf("timelines differ from %s: %v", goldenTimeline, diffs)
	}
}
