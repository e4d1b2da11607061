package experiment

// Degraded prices the degraded-network fallback: the chaos pipeline on
// routed ring platforms of growing size, under a mid-scatter site
// partition plus a degraded trunk link, run twice per size — once with
// recovery forced to keep the exact DP re-solves (the healthy-network
// baseline) and once with the divergence detector wired in, so the
// re-solves fall back to diffusion over the live adjacency. The rows
// compare the two pipelines' makespans and, per size, the raw solver
// gap between one exact solve and one diffusion pass on the same
// flattened platform. `scatterbench -exp degraded -json FILE` writes
// the same numbers as BENCH_degraded.json.

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/platform"
)

func init() {
	register("degraded", Degraded)
}

// degradedSizes are the benchmark's graph sizes, in sites; each site
// carries two machines, so ranks = 2·sites.
var degradedSizes = []int{3, 5, 8}

// degradedRow is one row of BENCH_degraded.json: one graph size.
type degradedRow struct {
	Sites              int     `json:"sites"`
	Ranks              int     `json:"ranks"`
	Items              int     `json:"items"`
	BaseMakespan       float64 `json:"fault_free_makespan_s"`
	ExactMakespan      float64 `json:"exact_recovery_makespan_s"`
	DiffuseMakespan    float64 `json:"diffuse_recovery_makespan_s"`
	DiffuseOverheadPct float64 `json:"diffuse_vs_exact_overhead_pct"`
	DiffuseRounds      int     `json:"diffuse_rounds"`
	Timeouts           int     `json:"timeouts"`
	FailedRanks        int     `json:"failed_ranks"`
	SolverExact        float64 `json:"solver_exact_makespan_s"`
	SolverDiffuse      float64 `json:"solver_diffuse_makespan_s"`
	SolverRatio        float64 `json:"solver_diffuse_over_exact"`
}

// degradedDoc is the BENCH_degraded.json document.
type degradedDoc struct {
	Benchmark string        `json:"benchmark"`
	Scenario  string        `json:"scenario"`
	BandNote  string        `json:"band_note"`
	Rows      []degradedRow `json:"rows"`
}

// degradedGraph builds a deterministic ring of sites with two machines
// each: compute speeds cycle over three classes, attachments are
// LAN-scale, and the inter-site links carry the real cost. A ring, so
// one partitioned site never disconnects the survivors.
func degradedGraph(sites int) platform.Graph {
	g := platform.Graph{Name: fmt.Sprintf("degraded-ring-%d", sites), Root: "m00a"}
	for s := 0; s < sites; s++ {
		node := platform.Node{Name: fmt.Sprintf("site%02d", s)}
		for m := 0; m < 2; m++ {
			node.Machines = append(node.Machines, platform.Machine{
				Name:  fmt.Sprintf("m%02d%c", s, 'a'+m),
				CPUs:  1,
				Beta:  1 + 0.5*float64((2*s+m)%3),
				Alpha: 0.02,
			})
		}
		g.Nodes = append(g.Nodes, node)
	}
	for s := 0; s < sites; s++ {
		next := (s + 1) % sites
		if sites == 2 && s == 1 {
			break // a two-node ring is a single link
		}
		g.Links = append(g.Links, platform.Link{
			A:     g.Nodes[s].Name,
			B:     g.Nodes[next].Name,
			Alpha: 0.05 + 0.005*float64(s),
		})
	}
	return g
}

// runDegraded executes the benchmark and assembles the document.
func runDegraded() (degradedDoc, error) {
	doc := degradedDoc{
		Benchmark: "Degraded",
		Scenario:  "permanent partition of one site mid-scatter plus every trunk link degraded 2x",
		BandNote: fmt.Sprintf("diffusion documents T <= %.1f*T_exact + GuaranteeBound; "+
			"solver_diffuse_over_exact must stay under that band", core.DiffusionBandFactor),
	}
	for _, sites := range degradedSizes {
		g := degradedGraph(sites)
		ranks := 2 * sites
		items := 30 * ranks

		base := chaos.Config{
			Seed:           int64(100 + sites),
			Items:          items,
			Graph:          &g,
			ForceRootCrash: -1,
			Horizon:        1,
			Policy: fault.Policy{
				Timeout:    1,
				MaxRetries: 2,
				Backoff:    fault.Backoff{Base: 0.5, Factor: 2, Cap: 2},
			},
		}
		clean, err := chaos.Run(base)
		if err != nil {
			return doc, fmt.Errorf("%d sites, clean: %w", sites, err)
		}
		if clean.TotalLoss {
			return doc, fmt.Errorf("%d sites: clean run lost everything", sites)
		}

		// Scale the scripted faults and the retry policy to this size's
		// fault-free makespan, so the partition always lands mid-scatter
		// and the retries always exhaust well before the pipeline ends.
		// Every trunk link degrades, not just one: the whole cost model
		// is stale, so the detector stays tripped through the re-solve —
		// the regime the diffusion fallback exists for.
		mk := clean.Makespan
		victim := g.Nodes[sites/2].Name
		faults := []fault.NetFault{
			{Kind: fault.Partition, Site: victim, Start: 0.1 * mk, End: 1e9},
		}
		for _, l := range g.Links {
			faults = append(faults, fault.NetFault{
				Kind: fault.LinkDegrade, EdgeA: l.A, EdgeB: l.B,
				Start: 0, End: 1e9, Factor: 2,
			})
		}
		cfg := base
		cfg.NetFaults = faults
		cfg.Policy.Timeout = 0.05 * mk
		cfg.Policy.Backoff = fault.Backoff{Base: 0.025 * mk, Factor: 2, Cap: 0.1 * mk}
		cfg.Divergence = monitor.DivergenceConfig{Window: 4, Trip: 2, Clear: 3}

		exactCfg := cfg
		exactCfg.ExactRecovery = true
		exact, err := chaos.Run(exactCfg)
		if err != nil {
			return doc, fmt.Errorf("%d sites, exact recovery: %w", sites, err)
		}
		diffuse, err := chaos.Run(cfg)
		if err != nil {
			return doc, fmt.Errorf("%d sites, diffuse recovery: %w", sites, err)
		}
		if exact.TotalLoss || diffuse.TotalLoss {
			return doc, fmt.Errorf("%d sites: partial partition reported total loss", sites)
		}
		if diffuse.DiffuseRounds == 0 {
			return doc, fmt.Errorf("%d sites: the degraded run never took the diffusion fallback", sites)
		}

		// Raw solver gap on the same flattened platform, full adjacency:
		// one exact solve vs one diffusion pass over the whole pool.
		pl, err := g.Flatten()
		if err != nil {
			return doc, fmt.Errorf("%d sites: %w", sites, err)
		}
		procs, err := pl.Processors()
		if err != nil {
			return doc, fmt.Errorf("%d sites: %w", sites, err)
		}
		rankNodes, err := g.ProcessorNodes()
		if err != nil {
			return doc, fmt.Errorf("%d sites: %w", sites, err)
		}
		opt, err := core.Algorithm2(procs, items)
		if err != nil {
			return doc, fmt.Errorf("%d sites, exact solve: %w", sites, err)
		}
		diffRes, _, err := core.DiffusePool(procs, g.RankAdjacency(rankNodes), items)
		if err != nil {
			return doc, fmt.Errorf("%d sites, diffusion solve: %w", sites, err)
		}
		solverDiffuse := core.Makespan(procs, diffRes.Distribution)

		failed := map[int]bool{}
		timeouts := 0
		for _, s := range diffuse.Scatters {
			timeouts += s.Timeouts
			for _, r := range s.Failed {
				failed[r] = true
			}
		}
		overhead := 0.0
		if exact.Makespan > 0 {
			overhead = 100 * (diffuse.Makespan - exact.Makespan) / exact.Makespan
		}
		doc.Rows = append(doc.Rows, degradedRow{
			Sites:              sites,
			Ranks:              ranks,
			Items:              items,
			BaseMakespan:       mk,
			ExactMakespan:      exact.Makespan,
			DiffuseMakespan:    diffuse.Makespan,
			DiffuseOverheadPct: overhead,
			DiffuseRounds:      diffuse.DiffuseRounds,
			Timeouts:           timeouts,
			FailedRanks:        len(failed),
			SolverExact:        opt.Makespan,
			SolverDiffuse:      solverDiffuse,
			SolverRatio:        solverDiffuse / opt.Makespan,
		})
	}
	return doc, nil
}

// Degraded is the registered experiment: the exact-vs-diffusion table
// on degraded networks. The paper assumes a healthy network — the
// Paper column is 0 throughout, and the rows document the extension.
func Degraded() (Report, error) {
	doc, err := runDegraded()
	if err != nil {
		return Report{}, err
	}

	var sb strings.Builder
	sb.WriteString("Chaos pipeline on routed ring platforms under a mid-scatter site\n")
	sb.WriteString("partition with every trunk link degraded 2x: exact-DP recovery vs\n")
	sb.WriteString("the diffusion fallback the divergence detector switches to. A\n")
	sb.WriteString("negative overhead means diffusion beat the exact re-solve — the DP\n")
	sb.WriteString("optimizes the nominal cost model, which the degradation has made\n")
	sb.WriteString("stale, while diffusion never consults it.\n\n")
	fmt.Fprintf(&sb, "%5s %6s %6s %10s %10s %10s %9s %8s %7s\n",
		"sites", "ranks", "items", "base (s)", "exact (s)", "diffuse", "overhead", "dRounds", "solver")
	for _, r := range doc.Rows {
		fmt.Fprintf(&sb, "%5d %6d %6d %10.2f %10.2f %10.2f %8.2f%% %8d %6.2fx\n",
			r.Sites, r.Ranks, r.Items, r.BaseMakespan, r.ExactMakespan, r.DiffuseMakespan,
			r.DiffuseOverheadPct, r.DiffuseRounds, r.SolverRatio)
	}
	sb.WriteString("\nsolver column: makespan of one full-pool diffusion over the exact optimum\n")
	fmt.Fprintf(&sb, "(documented band: %.1fx + GuaranteeBound).\n", core.DiffusionBandFactor)

	rep := Report{
		ID:    "degraded",
		Title: "degraded-network recovery: exact DP vs diffusion fallback (extension)",
		Body:  sb.String(),
		Doc:   doc,
	}
	worst := 0.0
	for _, r := range doc.Rows {
		if r.SolverRatio > worst {
			worst = r.SolverRatio
		}
		rep.Comparisons = append(rep.Comparisons, Comparison{
			Metric:   fmt.Sprintf("diffusion overhead vs exact recovery, %d sites", r.Sites),
			Paper:    0,
			Measured: r.DiffuseOverheadPct,
			Unit:     "%",
			Note:     "extension: no paper counterpart",
		})
	}
	rep.Comparisons = append(rep.Comparisons, Comparison{
		Metric:   "worst full-pool diffuse/exact solver ratio",
		Paper:    0,
		Measured: worst,
		Unit:     "x",
		Note:     fmt.Sprintf("must stay under the documented %.1fx band", core.DiffusionBandFactor),
	})
	return rep, nil
}
