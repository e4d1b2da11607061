package chaos

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mpi"
)

// crashFreeConfig turns a chaos configuration into one whose fault
// schedule is fixed and spares the initial root: the faults cfg's run
// drew, minus every crash of that root, replayed as scripted faults.
// It returns the configuration and the root's rank.
func crashFreeConfig(t *testing.T, cfg Config) (Config, int) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := cfg.Root
	if cfg.Graph != nil {
		root = len(res.Stats) - 1 // a routed grid's root is its last rank
	}
	free := cfg
	free.CrashProb, free.DropProb, free.SlowProb = 0, 0, 0
	free.ForceRootCrash = -1
	free.Horizon = res.Horizon
	free.ExtraFaults = nil
	for _, f := range res.Plan.Faults() {
		if f.Kind != fault.Crash || f.Rank != root {
			free.ExtraFaults = append(free.ExtraFaults, f)
		}
	}
	return free, root
}

// supervised reports whether a span is the serving root's own booking
// of a transfer, timeout or backoff in a fault-tolerant scatter (→) or
// gather (←).
func supervised(s mpi.Span) bool {
	switch s.Phase {
	case mpi.PhaseComm, mpi.PhaseTimeout, mpi.PhaseBackoff:
		return strings.ContainsAny(s.Label, "→←")
	}
	return false
}

// confirmedBefore returns every ledger checkpoint of each collective
// recorded before t, in collective order; a collective missing from
// the run has none.
func confirmedBefore(reports []*fault.Ledger, n int, t float64) [][]fault.Checkpoint {
	out := make([][]fault.Checkpoint, n)
	for i, l := range reports {
		for _, cp := range l.Entries() {
			if cp.At < t {
				out[i] = append(out[i], cp)
			}
		}
	}
	return out
}

// ledgers lists a run's delivery ledgers: its scatters', then its
// gathers'.
func ledgers(res *Result) (scatters, gathers []*fault.Ledger) {
	for _, s := range res.Scatters {
		scatters = append(scatters, s.Ledger)
	}
	for _, g := range res.Gathers {
		gathers = append(gathers, g.Ledger)
	}
	return scatters, gathers
}

// TestRootCrashMetamorphic pins the supervisor's booking rule for a
// root crash as a metamorphic property over the golden sweep (Table 1
// mixes, the small heterogeneous grid, the scripted root-crash cases
// and the routed grids). Each run is replayed with its initial root
// spared; then, for every span that root books in that crash-free
// timeline — a transfer, a timeout or a backoff, in a scatter or a
// gather — it is rerun with the root crashing at the span's midpoint.
// The rerun must pass the harness's invariants and:
//
//   - book, on the root, a "(cut)" span of the same phase and target
//     that starts where the crash-free span started;
//   - keep every ledger checkpoint recorded before the crash as the
//     crash-free run recorded it, and confirm no delivery from the
//     crash until the survivors' election ends: the dead root confirms
//     nothing more.
func TestRootCrashMetamorphic(t *testing.T) {
	reruns := 0
	for _, gc := range goldenCases(t) {
		base, root := crashFreeConfig(t, gc.cfg)
		free, err := Run(base)
		if err != nil {
			t.Fatalf("%s (root spared): %v", gc.name, err)
		}
		freeScat, freeGath := ledgers(free)
		rootName := free.Stats[root].Name
		for _, sp := range free.Stats[root].Spans {
			at := sp.Start + (sp.End-sp.Start)/2
			if !supervised(sp) || !(sp.Start < at && at < sp.End) {
				continue
			}
			reruns++
			name := fmt.Sprintf("%s: root crash at %v inside %q [%v, %v]", gc.name, at, sp.Label, sp.Start, sp.End)
			cfg := base
			cfg.ExtraFaults = append(append([]fault.Fault(nil), base.ExtraFaults...),
				fault.Fault{Kind: fault.Crash, Rank: root, Start: at})
			res, err := Run(cfg)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}

			target, _, _ := strings.Cut(sp.Label, " #")
			cut := false
			for _, s := range res.Stats[root].Spans {
				cut = cut || s.Phase == sp.Phase && s.Start == sp.Start && s.Label == target+" (cut)"
			}
			if !cut {
				t.Errorf("%s: no %q span of the same phase starting at %v; root timeline %v",
					name, target+" (cut)", sp.Start, res.Stats[root].Spans)
			}

			// The survivors' election of the dead root's successor ends
			// at elected, and starts exactly at the crash instant.
			elected := -1.0
			for _, rs := range res.Stats {
				for _, s := range rs.Spans {
					if s.Phase == mpi.PhaseFailover && strings.HasPrefix(s.Label, "failover "+rootName+"→") {
						elected = s.End
						if s.Start != at {
							t.Errorf("%s: %s's %q span starts at %v, not at the crash", name, rs.Name, s.Label, s.Start)
						}
					}
				}
			}
			scat, gath := ledgers(res)
			for _, kind := range []struct {
				name      string
				free, got []*fault.Ledger
			}{{"scatter", freeScat, scat}, {"gather", freeGath, gath}} {
				n := max(len(kind.free), len(kind.got))
				want, got := confirmedBefore(kind.free, n, at), confirmedBefore(kind.got, n, at)
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Errorf("%s: %s %d ledger before the crash\n got %v\nwant %v", name, kind.name, i, got[i], want[i])
					}
				}
				for i, l := range kind.got {
					for _, cp := range l.Entries() {
						if cp.Op == fault.OpDeliver && cp.At >= at && (elected < 0 || cp.At < elected) {
							t.Errorf("%s: %s %d confirms %+v after the root died, before a successor was elected (at %v)",
								name, kind.name, i, cp, elected)
						}
					}
				}
			}
		}
	}
	if reruns < 100 {
		t.Fatalf("only %d root spans to crash inside; the sweep no longer reaches the supervisor", reruns)
	}
	t.Logf("%d crash reruns", reruns)
}
