package experiment

// Recovery prices root failover: the full chaos pipeline (fault-
// tolerant scatter → compute → fault-tolerant gather) on the Table 1
// grid under scripted crash scenarios, comparing each recovered run's
// makespan to the fault-free baseline. The paper assumes a reliable
// root holding the data (Section 3.4); this experiment measures what
// dropping that assumption costs under the ledger-checkpointed
// recovery protocol of DESIGN.md §9. `scatterbench -exp recovery
// -json FILE` writes the same numbers as BENCH_recovery.json.

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/platform"
)

func init() {
	register("recovery", Recovery)
}

// recoveryItems keeps the virtual workload large enough that the
// scatter's serve window is a real target for mid-transfer faults,
// small enough to regenerate in seconds.
const recoveryItems = 100000

// recoveryResult is one row of BENCH_recovery.json.
type recoveryResult struct {
	Name        string  `json:"name"`
	Makespan    float64 `json:"makespan_virtual_s"`
	OverheadPct float64 `json:"overhead_pct"`
	Failovers   int     `json:"failovers"`
	Recomputes  int     `json:"recomputes"`
	// Retries and Timeouts total the transfer retries and abandoned
	// attempts over the run's scatters.
	Retries  int    `json:"retries"`
	Timeouts int    `json:"timeouts"`
	Scatters int    `json:"scatters"`
	Gathers  int    `json:"gathers"`
	Note     string `json:"note"`
}

// recoveryDoc is the BENCH_recovery.json document.
type recoveryDoc struct {
	Benchmark string           `json:"benchmark"`
	Platform  string           `json:"platform"`
	Items     int              `json:"items"`
	Seed      int64            `json:"seed"`
	Scenarios []recoveryResult `json:"scenarios"`
}

// recoveryScenario scripts one crash regime. faults receives the
// fault-free baseline makespan so late crashes can be placed relative
// to the pipeline's phases, and the root rank.
type recoveryScenario struct {
	name   string
	note   string
	faults func(base float64, root int) []fault.Fault
}

func recoveryScenarios() []recoveryScenario {
	return []recoveryScenario{
		{
			name: "fault-free",
			note: "baseline; the recovery machinery must cost nothing",
			faults: func(float64, int) []fault.Fault {
				return nil
			},
		},
		{
			name: "transient-drop",
			note: "one worker's link drops its first sends; the scatter times out, backs off and retries until the link returns",
			faults: func(_ float64, _ int) []fault.Fault {
				return []fault.Fault{{Kind: fault.LinkDrop, Rank: 2, Start: 0, End: 1.5}}
			},
		},
		{
			name: "worker-crash",
			note: "one worker dies mid-scatter; its checkpointed items are reclaimed and rebalanced over survivors",
			faults: func(_ float64, _ int) []fault.Fault {
				// Rank 2 (sekhmet in descending-bandwidth order), mid-serve.
				return []fault.Fault{{Kind: fault.Crash, Rank: 2, Start: 1}}
			},
		},
		{
			name: "root-crash-early",
			note: "the data root dies mid-first-round; a new root is elected and resumes from the ledger checkpoint",
			faults: func(_ float64, root int) []fault.Fault {
				return []fault.Fault{{Kind: fault.Crash, Rank: root, Start: 0.5}}
			},
		},
		{
			name: "root-crash-late",
			note: "the root dies after the scatter completes, during compute; the gather fails over and the root's share is recomputed",
			faults: func(base float64, root int) []fault.Fault {
				return []fault.Fault{{Kind: fault.Crash, Rank: root, Start: 0.5 * base}}
			},
		},
	}
}

// runRecovery executes the scenarios and assembles the document.
func runRecovery() (recoveryDoc, error) {
	const seed = 1
	doc := recoveryDoc{
		Benchmark: "Recovery",
		Platform:  "table1-descending-bandwidth",
		Items:     recoveryItems,
		Seed:      seed,
	}
	procs, err := platform.Table1().ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		return doc, err
	}
	root := len(procs) - 1 // dinadan, served last with its free link
	pol := fault.Policy{
		Timeout:    0.5,
		MaxRetries: 3,
		Backoff:    fault.Backoff{Base: 0.25, Factor: 2, Cap: 2},
	}

	base := 0.0
	for _, sc := range recoveryScenarios() {
		cfg := chaos.Config{
			Seed:           seed,
			Procs:          procs,
			Root:           root,
			Items:          recoveryItems,
			ForceRootCrash: -1,
			ExtraFaults:    sc.faults(base, root),
			Policy:         pol,
		}
		res, err := chaos.Run(cfg)
		if err != nil {
			return doc, fmt.Errorf("%s: %w", sc.name, err)
		}
		if res.TotalLoss {
			return doc, fmt.Errorf("%s: unexpected total loss", sc.name)
		}
		if sc.name == "fault-free" {
			base = res.Makespan
		}
		overhead := 0.0
		if base > 0 {
			overhead = 100 * (res.Makespan - base) / base
		}
		row := recoveryResult{
			Name:        sc.name,
			Makespan:    res.Makespan,
			OverheadPct: overhead,
			Failovers:   res.Failovers,
			Recomputes:  res.Recomputes,
			Scatters:    len(res.Scatters),
			Gathers:     len(res.Gathers),
			Note:        sc.note,
		}
		for _, rep := range res.Scatters {
			row.Retries += rep.Retries
			row.Timeouts += rep.Timeouts
		}
		doc.Scenarios = append(doc.Scenarios, row)
	}
	return doc, nil
}

// Recovery is the registered experiment: the recovery-overhead table
// plus sanity comparisons. The paper has no failover numbers — the
// Paper column is 0 throughout, and the rows document the extension.
func Recovery() (Report, error) {
	doc, err := runRecovery()
	if err != nil {
		return Report{}, err
	}

	var sb strings.Builder
	sb.WriteString("Chaos pipeline (scatter → compute → gather) on the Table 1 grid,\n")
	fmt.Fprintf(&sb, "%d items, scripted crashes, ledger-checkpointed recovery:\n\n", doc.Items)
	fmt.Fprintf(&sb, "%-18s %14s %10s %10s %11s %8s %9s\n",
		"scenario", "makespan (s)", "overhead", "failovers", "recomputes", "retries", "timeouts")
	for _, row := range doc.Scenarios {
		fmt.Fprintf(&sb, "%-18s %14.4f %9.2f%% %10d %11d %8d %9d\n",
			row.Name, row.Makespan, row.OverheadPct, row.Failovers, row.Recomputes, row.Retries, row.Timeouts)
	}
	sb.WriteString("\n")
	for _, row := range doc.Scenarios {
		fmt.Fprintf(&sb, "%-18s %s\n", row.Name, row.Note)
	}

	byName := map[string]recoveryResult{}
	for _, row := range doc.Scenarios {
		byName[row.Name] = row
	}
	rep := Report{
		ID:    "recovery",
		Title: "failover recovery overhead (extension: the paper assumes a reliable root)",
		Body:  sb.String(),
		Doc:   doc,
		Comparisons: []Comparison{
			{Metric: "recovery overhead, transient link drop", Paper: 0,
				Measured: byName["transient-drop"].OverheadPct, Unit: "%",
				Note: "extension: timeouts and retries, no rebalance"},
			{Metric: "recovery overhead, worker crash", Paper: 0,
				Measured: byName["worker-crash"].OverheadPct, Unit: "%",
				Note: "extension: no paper counterpart"},
			{Metric: "recovery overhead, root crash early", Paper: 0,
				Measured: byName["root-crash-early"].OverheadPct, Unit: "%",
				Note: "extension: scatter resumes from the ledger checkpoint"},
			{Metric: "recovery overhead, root crash late", Paper: 0,
				Measured: byName["root-crash-late"].OverheadPct, Unit: "%",
				Note: "extension: gather fails over, root share recomputed"},
			{Metric: "failovers, root crash early", Paper: 0,
				Measured: float64(byName["root-crash-early"].Failovers), Unit: "",
				Note: "must be >= 1: the crash lands mid-round"},
		},
	}
	return rep, nil
}
