// Faultdemo: the paper's Table 1 scatter with injected failures, in
// two acts (see the README next to this file for the walkthrough).
//
// Act 1 — worker failures: a transient link drop on the first
// destination and a mid-scatter crash of sekhmet. The fault-tolerant
// scatter retries the dropped send, declares sekhmet dead, re-solves
// the distribution over the survivors (Theorem 2 machinery on the
// surviving subset, with link costs degraded by the monitor's
// observations), and redistributes the lost items in a second round —
// every item delivered exactly once.
//
// Act 2 — root failover: dinadan, the data root itself, crashes midway
// through serving the first round. The survivors elect the lowest rank
// holding the freshest replica of the delivery ledger, the promoted
// root re-reads the undelivered items from durable storage and resumes
// from the last checkpoint, and the follow-up gather completes at the
// new root — all items still delivered and collected exactly once.
//
// Act 3 — degraded network: a routed three-site ring where every trunk
// link runs at half speed, one site is partitioned mid-scatter and
// heals (its ranks rejoin without ever being declared dead), and one
// machine crashes for good. The divergence detector notices the cost
// model has gone stale, so the crash's rebalance skips the exact DP
// and diffuses the lost items over the live adjacency instead — still
// exactly once.
//
// Run with: go run ./examples/faultdemo
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/monitor"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/simgrid"
	"repro/internal/trace"
)

func main() {
	procs, err := platform.Table1().ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		log.Fatal(err)
	}
	root := len(procs) - 1 // service order: root (dinadan) last
	const n = platform.Table1Rays

	// The paper's balanced distribution (all Table 1 costs are linear,
	// so this is the Theorem 1/2 closed form) and its analytic timeline.
	res, err := core.SolveLinear(procs, n)
	if err != nil {
		log.Fatal(err)
	}
	counts := []int(res.Distribution)
	tlPlan, err := schedule.Build(procs, res.Distribution)
	if err != nil {
		log.Fatal(err)
	}

	// The failure scenario. The first destination's link drops sends
	// for 0.4 s (one timeout + retry), and sekhmet crashes midway
	// through receiving its share.
	sek := rankOf(procs, "sekhmet")
	crashAt := (tlPlan.Procs[sek].Recv.Start + tlPlan.Procs[sek].Recv.End) / 2
	plan := fault.MustPlan(
		fault.Fault{Kind: fault.LinkDrop, Rank: 0, Start: 0, End: 0.4},
		fault.Fault{Kind: fault.Crash, Rank: sek, Start: crashAt},
	)
	pol := fault.Policy{
		Timeout:    0.5,
		MaxRetries: 3,
		Backoff:    fault.Backoff{Base: 0.25, Factor: 2, Cap: 2},
	}

	fmt.Printf("platform: Table 1, %d processors, root %s, n = %d rays\n",
		len(procs), procs[root].Name, n)
	fmt.Printf("planned distribution (makespan %.1f s):\n", res.Makespan)
	printDist(procs, res.Distribution)
	fmt.Println("\ninjected faults:")
	for _, f := range plan.Faults() {
		switch f.Kind {
		case fault.Crash:
			fmt.Printf("  %-9s crashes at t = %.1f s (mid-transfer)\n", procs[f.Rank].Name, f.Start)
		default:
			fmt.Printf("  %-9s %s during [%.1f, %.1f) s\n", procs[f.Rank].Name, f.Kind, f.Start, f.End)
		}
	}
	fmt.Printf("retry policy: timeout %.2g s, %d retries, backoff %.2gx2^k s capped at %.2g s\n\n",
		pol.Timeout, pol.MaxRetries, pol.Backoff.Base, pol.Backoff.Cap)

	// The run: fault plan + retry policy installed, send outcomes feed
	// the monitor, and the rebalance re-solve reads the degraded link
	// costs back out.
	world, err := mpi.NewWorld(procs, root)
	if err != nil {
		log.Fatal(err)
	}
	world.SetFaultPlan(plan, pol)
	mon := monitor.New(64, nil)
	world.SetSendObserver(fault.MonitorObserver(mon))
	world.SetRebalanceCosts(func(ranks []int) []core.Processor {
		sub := make([]core.Processor, len(ranks))
		for i, r := range ranks {
			sub[i] = procs[r]
		}
		return fault.DegradeProcessors(mon, sub)
	})

	stats, chunks, rep := runScatter(world, n, counts, false)

	fmt.Printf("scatter finished in %d rounds with %d timeouts and %d retries\n",
		rep.Rounds, rep.Timeouts, rep.Retries)
	fmt.Print("failed ranks:")
	for _, r := range rep.Failed {
		fmt.Printf(" %d (%s)", r, procs[r].Name)
	}
	fmt.Printf("\n\nfinal distribution after rebalancing over the survivors:\n")
	printDist(procs, rep.Final)

	// Exactly-once audit: every one of the n items landed on exactly
	// one surviving rank.
	auditOnce(chunks, n)
	fmt.Printf("\nexactly-once check: all %d items delivered once (sum of shares %d)\n",
		n, rep.Final.Sum())

	// Cost of surviving the failures, against the paper's bounds.
	achieved := mpi.Makespan(stats)
	fmt.Printf("\nmakespan: %.1f s achieved vs %.1f s failure-free optimum (overhead %.1f s, +%.1f%%)\n",
		achieved, res.Makespan, achieved-res.Makespan, 100*(achieved-res.Makespan)/res.Makespan)
	fmt.Printf("Eq. (4) heuristic gap bound on the re-solved distribution: %.2f s\n",
		core.GuaranteeBound(procs))

	fmt.Printf("\nper-rank timeline (= comm, R rebalance, # comp, ! timeout, ~ backoff, x crashed):\n")
	fmt.Print(trace.RankGantt(stats, 96))

	svg := trace.RankSVG(stats, "Table 1 scatter with a link drop and a sekhmet crash")
	if err := os.MkdirAll("figures", 0o755); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("figures/fault.svg", []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote figures/fault.svg")

	// Cross-check with the discrete-event simulator: under the same
	// fault plan, the original (non-fault-tolerant) scatter never
	// completes — sekhmet's link stops forever mid-transfer.
	names := make([]string, len(procs))
	for i, p := range procs {
		names[i] = p.Name
	}
	cpuW, linkW := simgrid.PlanWindows(plan, names)
	tl, err := simgrid.Run(simgrid.Config{
		Procs: procs, Dist: res.Distribution, CPULoad: cpuW, LinkLoad: linkW,
	})
	if err != nil {
		log.Fatal(err)
	}
	if math.IsInf(tl.Makespan, 1) {
		fmt.Println("simgrid cross-check: the plain scatter under the same faults never completes (makespan +Inf)")
	} else {
		fmt.Printf("simgrid cross-check: plain scatter makespan %.1f s\n", tl.Makespan)
	}

	failoverDemo(procs, root, counts, tlPlan, pol)
	degradedDemo()
}

// degradedDemo is act 3: the network itself misbehaves. On a routed
// three-site ring, every trunk link degrades to half speed, one whole
// site is partitioned mid-scatter but heals in time for its ranks to
// rejoin, and one machine crashes permanently. The divergence detector
// watches observed transfer times drift away from the nominal cost
// model and switches the crash's rebalance from the exact DP (which
// would optimize the stale model) to diffusion over the live
// adjacency.
func degradedDemo() {
	// The platform: three sites in a ring, two machines each, the data
	// root on siteA. Cross-site transfers route over the trunk links;
	// each machine pays its LAN attachment on top.
	g := platform.Graph{Name: "demo-ring", Root: "a0"}
	for s, site := range []string{"siteA", "siteB", "siteC"} {
		node := platform.Node{Name: site}
		for m := 0; m < 2; m++ {
			node.Machines = append(node.Machines, platform.Machine{
				Name:  fmt.Sprintf("%c%d", 'a'+s, m),
				CPUs:  1,
				Beta:  1 + 0.5*float64((2*s+m)%3),
				Alpha: 0.02,
			})
		}
		g.Nodes = append(g.Nodes, node)
	}
	g.Links = []platform.Link{
		{A: "siteA", B: "siteB", Alpha: 0.05},
		{A: "siteB", B: "siteC", Alpha: 0.05},
		{A: "siteC", B: "siteA", Alpha: 0.08},
	}

	pl, err := g.Flatten()
	if err != nil {
		log.Fatal(err)
	}
	procs, err := pl.Processors()
	if err != nil {
		log.Fatal(err)
	}
	root := len(procs) - 1 // Flatten serves the root last
	rankNodes, err := g.ProcessorNodes()
	if err != nil {
		log.Fatal(err)
	}
	const n = 600
	res, err := core.Algorithm2(procs, n)
	if err != nil {
		log.Fatal(err)
	}
	counts := []int(res.Distribution)
	mk := res.Makespan

	// The faults, anchored to the planned serve order: every trunk link
	// at half speed for the whole run (the model is globally stale), so
	// the real transfers run ~2x the analytic windows. siteB drops off
	// the network just as the root starts serving it, and heals before
	// the retry budget runs out — rejoin, not death. c0 crashes at the
	// same moment, permanently.
	tl, err := schedule.Build(procs, res.Distribution)
	if err != nil {
		log.Fatal(err)
	}
	victim := rankOf(procs, "c0")
	pStart := 2*tl.Procs[rankOf(procs, "b0")].Recv.Start + 1
	pEnd := pStart + 0.4*mk
	netfaults := []fault.NetFault{
		{Kind: fault.Partition, Site: "siteB", Start: pStart, End: pEnd},
	}
	for _, l := range g.Links {
		netfaults = append(netfaults, fault.NetFault{
			Kind: fault.LinkDegrade, EdgeA: l.A, EdgeB: l.B,
			Start: 0, End: 1e9, Factor: 2,
		})
	}
	netplan, err := simgrid.BuildNetPlan(g, rankNodes, netfaults)
	if err != nil {
		log.Fatal(err)
	}
	plan := fault.MustPlan(fault.Fault{Kind: fault.Crash, Rank: victim, Start: pStart})
	pol := fault.Policy{
		Timeout:    0.04 * mk,
		MaxRetries: 6,
		Backoff:    fault.Backoff{Base: 0.02 * mk, Factor: 2, Cap: 0.08 * mk},
	}

	fmt.Printf("\n=== act 3: degraded network (partition, rejoin, diffusion fallback) ===\n\n")
	fmt.Printf("platform: %s — 3 sites x 2 machines, root %s on siteA, n = %d items\n",
		g.Name, procs[root].Name, n)
	fmt.Printf("planned distribution (nominal makespan %.1f s):\n", mk)
	printDist(procs, res.Distribution)
	fmt.Println("\ninjected faults:")
	fmt.Printf("  every trunk link degraded 2x for the whole run (stale cost model)\n")
	fmt.Printf("  siteB partitioned during [%.1f, %.1f) s — heals mid-scatter\n", pStart, pEnd)
	fmt.Printf("  c0 crashes at t = %.1f s (permanent)\n", pStart)

	world, err := mpi.NewWorld(procs, root)
	if err != nil {
		log.Fatal(err)
	}
	world.SetFaultPlan(plan, pol)
	world.SetNetPlan(netplan)
	world.SetDiffusionAdjacency(g.RankAdjacency(rankNodes))
	div := monitor.NewDivergence(monitor.DivergenceConfig{Window: 4, Trip: 2, Clear: 3})
	world.SetDivergence(div)

	stats, chunks, rep := runScatter(world, n, counts, false)

	fmt.Printf("\nscatter finished in %d rounds with %d timeouts and %d retries\n",
		rep.Rounds, rep.Timeouts, rep.Retries)
	fmt.Print("failed ranks:")
	for _, r := range rep.Failed {
		fmt.Printf(" %d (%s)", r, procs[r].Name)
	}
	fmt.Printf("\nsiteB ranks held their shares across the heal — partitioned, retried, rejoined\n")
	fmt.Printf("divergence detector degraded: %v (observed transfers ~2x the nominal model)\n",
		div.Degraded())
	for _, rb := range rep.Rebalances {
		fmt.Printf("rebalance: %d lost items redistributed in %q mode over %d survivors\n",
			rb.Items, rb.Mode, len(rb.Ranks))
	}
	fmt.Printf("\nfinal distribution after the diffusion rebalance:\n")
	printDist(procs, rep.Final)

	// Exactly-once audit: despite the partition, the heal, the stale
	// model, and the crash, every item landed on exactly one rank.
	auditOnce(chunks, n)
	fmt.Printf("\nexactly-once check: all %d items delivered once (sum of shares %d)\n",
		n, rep.Final.Sum())

	fmt.Printf("\nper-rank timeline (! timeout, ~ backoff, R rebalance incl. diffuse→ sends, x crashed):\n")
	fmt.Print(trace.RankGantt(stats, 96))

	svg := trace.RankSVG(stats, "Routed ring surviving a partition, a heal, and a crash on a degraded network")
	if err := os.WriteFile("figures/degraded.svg", []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote figures/degraded.svg")
}

// failoverDemo is act 2: the data root itself dies mid-scatter. The
// survivors elect a new root from the replicated delivery ledger,
// resume the scatter from the last checkpoint, and finish the whole
// scatter→compute→gather pipeline at the promoted root.
func failoverDemo(procs []core.Processor, root int, counts []int, tlPlan schedule.Timeline, pol fault.Policy) {
	const n = platform.Table1Rays

	// Crash the root at 40% of the scatter's serve window: the early,
	// fast-link ranks already hold their checkpointed shares; the rest
	// of the input must be re-read and re-scattered by the new root.
	serveEnd := 0.0
	for _, p := range tlPlan.Procs {
		if p.Recv.End > serveEnd {
			serveEnd = p.Recv.End
		}
	}
	crashAt := 0.4 * serveEnd
	plan := fault.MustPlan(fault.Fault{Kind: fault.Crash, Rank: root, Start: crashAt})

	fmt.Printf("\n=== act 2: root failover ===\n\n")
	fmt.Printf("injected fault: %s (the data root) crashes at t = %.1f s, mid-first-round\n",
		procs[root].Name, crashAt)

	world, err := mpi.NewWorld(procs, root)
	if err != nil {
		log.Fatal(err)
	}
	world.SetFaultPlan(plan, pol)

	stats, gathered, rep := runScatter(world, n, counts, true)
	fmt.Print("root path:")
	for _, r := range rep.RootPath {
		fmt.Printf(" %s", procs[r].Name)
	}
	fmt.Printf(" (%d failover)\n", rep.Failovers)
	newRoot := rep.FinalRoot()
	checkpointed := n
	for _, rb := range rep.Rebalances {
		checkpointed -= rb.Items
	}
	fmt.Printf("ledger checkpoint at the crash: %d of %d items already delivered and kept;\n",
		checkpointed, n)
	fmt.Printf("%s re-elected (lowest survivor with the freshest ledger replica), resumed the rest\n\n",
		procs[newRoot].Name)
	fmt.Println("final distribution after the resume:")
	printDist(procs, rep.Final)

	// Exactly-once audit on the gathered output at the promoted root:
	// despite losing the data holder mid-scatter, every item was
	// computed and collected exactly once.
	auditOnce(gathered[newRoot:newRoot+1], n)
	fmt.Printf("\nexactly-once check: all %d items gathered once at %s\n",
		n, procs[newRoot].Name)

	fmt.Printf("\nper-rank timeline (R resume sends, F failover election):\n")
	fmt.Print(trace.RankGantt(stats, 96))

	svg := trace.RankSVG(stats, "Table 1 pipeline surviving a mid-scatter root crash")
	if err := os.WriteFile("figures/failover.svg", []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote figures/failover.svg")
}

// runScatter runs the fault-tolerant scatter of the items 0..n-1 over
// world, counts[r] to rank r. With gather set, the survivors then
// gather their shares back at the final root. It returns the per-rank
// timelines, what each rank ends up holding (its scatter share, or
// with gather what it gathered) and the scatter report, which the
// world's ranks share.
func runScatter(world *mpi.World, n int, counts []int, gather bool) ([]mpi.RankStats, [][]int32, *mpi.ScatterReport) {
	data := make([]int32, n)
	for i := range data {
		data[i] = int32(i)
	}
	held := make([][]int32, world.Size())
	reports := make([]*mpi.ScatterReport, world.Size())
	stats, err := mpi.Run(world, func(c *mpi.Comm) error {
		comm := c
		defer func() { c.Merge(comm) }()
		var in []int32
		if comm.IsRoot() {
			in = data
		}
		buf, rep, err := mpi.FaultTolerantScatterv(comm, in, counts)
		reports[c.Rank()] = rep
		if !gather {
			held[c.Rank()] = buf
		}
		if err != nil {
			return nil // a crashed rank leaves; survivors carry on
		}
		comm = rep.Survivors
		comm.ChargeItems(len(buf))
		if !gather {
			return nil
		}
		out, grep, err := mpi.FaultTolerantGatherv(comm, buf)
		if err != nil {
			return nil
		}
		comm = grep.Survivors
		held[c.Rank()] = out
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return stats, held, reports[world.Root()]
}

// auditOnce stops the demo unless each of the items 0..n-1 appears
// exactly once across held.
func auditOnce(held [][]int32, n int) {
	seen := make([]bool, n)
	count := 0
	for _, chunk := range held {
		for _, v := range chunk {
			if seen[v] {
				log.Fatalf("item %d arrived twice", v)
			}
			seen[v] = true
			count++
		}
	}
	if count != n {
		log.Fatalf("%d of %d items arrived", count, n)
	}
}

// rankOf finds a processor by name.
func rankOf(procs []core.Processor, name string) int {
	for i, p := range procs {
		if p.Name == name {
			return i
		}
	}
	log.Fatalf("no processor named %s", name)
	return -1
}

// printDist prints a distribution with bars, largest share = 40 chars.
func printDist(procs []core.Processor, dist core.Distribution) {
	max := 1
	for _, d := range dist {
		if d > max {
			max = d
		}
	}
	for i, p := range procs {
		fmt.Printf("  %-12s %7d %s\n", p.Name, dist[i], strings.Repeat("▪", dist[i]*40/max))
	}
}
