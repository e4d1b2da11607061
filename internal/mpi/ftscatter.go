package mpi

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/monitor"
)

// This file is the failure-aware counterpart of Scatterv. The serving
// root still ships to destinations in rank order over a single port
// (the paper's Section 2.3 model), but every send is supervised: a
// transfer that overlaps an injected link-drop window — or whose
// destination has crashed — times out at the root, which retries it
// under a capped exponential backoff. A rank whose retries are
// exhausted, or which crashes outright, is declared dead; the items it
// still owed (and any it had already received, since a crashed
// machine's partial results are gone) are re-balanced over the
// survivors by re-solving the paper's distribution problem on the
// surviving processors — the same solvers, including Theorem 2's
// participation pruning — and shipped in a further scatter round.
//
// The root itself may die too. Every confirmed send is checkpointed in
// a replicated delivery ledger (fault.Ledger): the root appends a
// checkpoint per acknowledged transfer and piggybacks the metadata-only
// log onto the acknowledgement, so every rank holding data holds a
// fresh ledger copy. When the serving root crashes, the survivors
// detect it (a missed heartbeat plus an agreement round, charged
// Policy.Election virtual seconds), deterministically elect the
// lowest-ranked survivor with a fresh ledger copy, and the new root
// resumes the scatter from the last checkpoint: confirmed deliveries
// stay where they are, and only the unconfirmed remainder — re-read
// from the durable input the original root was scattering — is
// re-solved over the survivors and shipped in a resume round. The loop
// repeats until a round loses nothing, so every item is delivered
// exactly once to a surviving rank.

// SetFaultPlan installs a failure-injection plan and the retry policy
// governing the fault-tolerant collectives. It must be called before
// Run; sub-worlds created by Split inherit it.
func (w *World) SetFaultPlan(plan *fault.Plan, pol fault.Policy) {
	w.fc.plan = plan
	w.fc.policy = pol
}

// SetSendObserver installs a callback invoked for every supervised
// send outcome (delivered, slowed, timed out, or aborted by a root
// crash). Wire it to a monitor with fault.MonitorObserver so re-solves
// see degraded link costs. It must be called before Run.
func (w *World) SetSendObserver(fn func(fault.SendEvent)) { w.fc.observer = fn }

// SetRebalanceCosts installs a hook that supplies the processors used
// when re-solving the distribution over survivors. It receives the
// surviving world ranks in service order (root last) and returns the
// matching processors — e.g. fault.DegradeProcessors applied to the
// restriction, so the re-solve accounts for links the monitor has seen
// flapping. When unset, the world's nominal processors are used. It
// must be called before Run.
func (w *World) SetRebalanceCosts(fn func(ranks []int) []core.Processor) { w.fc.rebalance = fn }

// SetNetPlan installs a network-level fault plan: partition, flap and
// degrade windows keyed by global rank pairs, typically compiled from
// a routed platform.Graph by simgrid.BuildNetPlan. A cut pair's
// transfers time out at the root like dropped links; a degraded pair's
// transfers stretch by the plan's slowdown factor. It must be called
// before Run; sub-worlds created by Split inherit it.
func (w *World) SetNetPlan(np *fault.NetPlan) { w.fc.netplan = np }

// SetDivergence installs the model-divergence detector that decides
// when recovery re-solves abandon the exact DP for the diffusion
// fallback: the scatter feeds it every observed transfer cost against
// the planned one, pins it degraded while a partition cuts the serving
// root off from survivors, and heals it when the network plan says the
// faults are over. It must be called before Run.
func (w *World) SetDivergence(d *monitor.Divergence) { w.fc.divergence = d }

// SetDiffusionAdjacency installs the rank-level topology (global-rank
// indexed, symmetric) that degraded-mode rebalances diffuse over,
// typically platform.Graph.RankAdjacency. When unset, every reachable
// pair of survivors counts as adjacent (the star assumption). It must
// be called before Run.
func (w *World) SetDiffusionAdjacency(adj [][]int) { w.fc.adjacency = adj }

// liveAdjacency builds the diffusion adjacency over the survivors
// (positions matching the slice) at time t: pairs adjacent in the
// configured topology — all pairs when none is set — and currently
// reachable under the network plan. Cut edges vanish, so diffusion
// can never move items across an active partition.
func (w *World) liveAdjacency(survivors []int, t float64) [][]int {
	np := w.fc.netplan
	base := w.fc.adjacency
	adjacent := func(a, b int) bool {
		ga, gb := w.globalRank(a), w.globalRank(b)
		if base != nil {
			if ga >= len(base) {
				return false
			}
			found := false
			for _, nb := range base[ga] {
				if nb == gb {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return np.Reachable(ga, gb, t)
	}
	adj := make([][]int, len(survivors))
	for i := range survivors {
		for j := range survivors {
			if i != j && adjacent(survivors[i], survivors[j]) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// rebalanceProcs returns the processors to re-solve over, for the
// given surviving ranks in service order (root last). The root's
// communication cost is forced to zero: its own share ships for free,
// exactly as in BalancedCounts.
func (w *World) rebalanceProcs(ranks []int) []core.Processor {
	var procs []core.Processor
	if w.fc.rebalance != nil {
		procs = append([]core.Processor(nil), w.fc.rebalance(ranks)...)
	} else {
		procs = make([]core.Processor, len(ranks))
		for i, r := range ranks {
			procs[i] = w.procs[r]
		}
	}
	if len(procs) > 0 {
		procs[len(procs)-1].Comm = cost.Zero
	}
	return procs
}

// serveTransfer prices a single-port transfer between the current
// serving root and another rank. With a custom TransferModel installed
// the real (from, to) pair is consulted. Under the default star model
// the cost is the non-serving endpoint's link cost: for the designated
// root this is exactly the star transfer, and for a promoted root it
// models the new server streaming through the star's switch at the
// other endpoint's link rate — the hub of the platform is the network,
// not the dead machine.
func (w *World) serveTransfer(server, other, items int, serverSends bool) float64 {
	if server == other {
		return 0
	}
	if w.transfer != nil {
		if serverSends {
			return w.transfer(server, other, items)
		}
		return w.transfer(other, server, items)
	}
	return w.procs[other].Comm.Eval(items)
}

// Rebalance describes one re-solve of the distribution problem during
// recovery: the scatter round its sends went out in, the serving root
// at that point, and the redistribution of the reclaimed pool over the
// survivors (Ranks in service order with the root last, Dist
// matching). The chaos harness audits each record against a fresh
// solve to keep recovery inside the Eq. (4) guarantee band.
type Rebalance struct {
	Round int
	Root  int
	Items int
	Ranks []int
	// Procs are the processors the re-solve ran over (service order
	// matching Ranks, the root's Comm forced to zero), so auditors can
	// re-evaluate the distribution without access to the world.
	Procs []core.Processor
	Dist  core.Distribution
	// Mode records how the distribution was computed: "exact" (the
	// DP solver), "diffuse" (the degraded-network diffusion fallback),
	// or "uniform" (the last-resort even split). Auditors hold exact
	// rebalances to bit-identity with a fresh solve and diffuse ones to
	// the documented quality band.
	Mode string
	// Adjacency is the live diffusion adjacency the fallback ran over
	// (positions matching Ranks); nil for exact and uniform rebalances.
	// Auditors replay core.DiffusePool over it to hold diffuse
	// rebalances to bit-identity too.
	Adjacency [][]int
}

// Rebalance modes.
const (
	RebalanceExact   = "exact"
	RebalanceDiffuse = "diffuse"
	RebalanceUniform = "uniform"
)

// Supervision is what the supervised port reports about a
// fault-tolerant collective; ScatterReport and GatherReport embed it.
type Supervision struct {
	// Retries counts re-attempted transfers; Timeouts counts transfer
	// attempts the root gave up on; Rounds counts service rounds (1 for
	// a failure-free run, +1 per rebalance, resume or re-collection).
	Retries, Timeouts, Rounds int
	// Failovers counts root re-elections; RootPath lists every serving
	// root in order, the original first (length Failovers+1).
	Failovers int
	RootPath  []int
	// Ledger is the final delivery ledger (shared between the ranks'
	// reports; read-only).
	Ledger *fault.Ledger
	// Survivors is a communicator over the surviving ranks, rooted at
	// the final serving root, for the rest of the program to continue
	// on. It is the receiver's own communicator when nothing failed,
	// and nil for a rank that failed.
	Survivors *Comm
}

// FinalRoot returns the root that completed the collective (the last
// entry of RootPath).
func (s *Supervision) FinalRoot() int { return s.RootPath[len(s.RootPath)-1] }

// ScatterReport describes how a fault-tolerant scatter went.
type ScatterReport struct {
	Supervision
	// Planned is the requested per-rank distribution (the counts
	// argument); Final is what each rank actually ended up holding —
	// zero for ranks that failed.
	Planned, Final core.Distribution
	// Failed lists the ranks declared dead during the scatter, in rank
	// order.
	Failed []int
	// Rebalances records every recovery re-solve in order.
	Rebalances []Rebalance
}

// supervisor runs the supervised single-port service both
// fault-tolerant collectives are made of: the serving root works
// through the ranks in rank order, one transfer at a time, and resolves
// every transfer, timeout and backoff against the fault plan, the
// network plan and its own crash. FaultTolerantScatterv pushes item
// ranges to the ranks; FaultTolerantGatherv pulls one contribution from
// each. What differs between the two is an input: the transfer
// direction (and the arrow of the span labels), the network plan and
// divergence detector — nil for the gather: a clean network nothing is
// observed on — and, per transfer, its size, the time the other side is
// ready, and the ledger write that lands it.
type supervisor struct {
	w      *World
	clocks []float64
	plan   *fault.Plan
	pol    fault.Policy
	np     *fault.NetPlan
	div    *monitor.Divergence
	sends  bool   // the root sends (scatter) rather than receives
	arrow  string // "→" when the root sends, "←" when it receives
	ledger *fault.Ledger
	rep    Supervision

	root        int     // the serving root
	t           float64 // its port time
	rootCrash   float64
	rootCrashes bool
	alive, dead []bool
	lastEnd     []float64 // each rank's last busy instant
	peerSpans   [][]Span  // each rank's side of its transfers
	serveSpans  [][]Span  // each rank's port time as root, and its election
}

// newSupervisor starts the service at the world's root, at the root's
// clock, with every rank alive and an empty ledger, under the world's
// fault and network plans. A nil div feeds no divergence samples.
func newSupervisor(w *World, clocks []float64, sends bool, div *monitor.Divergence) *supervisor {
	p := w.Size()
	s := &supervisor{
		w: w, clocks: clocks, plan: w.fc.plan, pol: w.fc.policy.WithDefaults(),
		np: w.fc.netplan, div: div, sends: sends, arrow: "←", ledger: fault.NewLedger(),
		root: w.rootRank, t: clocks[w.rootRank],
		alive: make([]bool, p), dead: make([]bool, p),
		lastEnd:   append([]float64(nil), clocks...),
		peerSpans: make([][]Span, p), serveSpans: make([][]Span, p),
	}
	if sends {
		s.arrow = "→"
	}
	for r := range s.alive {
		s.alive[r] = true
	}
	s.rootCrash, s.rootCrashes = s.plan.CrashTime(w.globalRank(s.root))
	s.rep.RootPath = []int{s.root}
	s.rep.Ledger = s.ledger
	return s
}

// book records a span of the serving root's port and moves the port
// time to its end.
func (s *supervisor) book(phase Phase, start, end float64, label string) {
	s.serveSpans[s.root] = append(s.serveSpans[s.root], Span{Phase: phase, Start: start, End: end, Label: label})
	s.t = end
	s.lastEnd[s.root] = end
}

// observe reports a transfer outcome, at the current port time, to the
// world's send observer.
func (s *supervisor) observe(ev fault.SendEvent, outcome fault.SendOutcome, actual float64) {
	if s.w.fc.observer != nil {
		ev.At, ev.Outcome, ev.Actual = s.t, outcome, actual
		s.w.fc.observer(ev)
	}
}

// transfer supervises the transfer of items between the serving root
// and rank r, retrying under the policy, and reports whether the
// serving root was lost. An attempt starts once the root's port is
// free and r is ready (the scatter pushes whenever the port is free,
// so it passes ready 0). Every step first resolves the serving root's
// own crash against the simulated clock: a transfer, timeout or backoff
// the crash instant falls inside is cut short and triggers a failover.
// An attempt is judged lost or delivered before the crash, so a crash
// during a lost attempt cuts its timeout, never a transfer.
// A confirmed transfer is written to the ledger by land, and the ledger
// metadata piggybacks on the acknowledgement to every holder; a rank
// that exhausts its retries is declared lost.
func (s *supervisor) transfer(r, items int, ready float64, label string, land func(r int, at float64)) (rootLost bool) {
	w := s.w
	gr, grServer := w.globalRank(r), w.globalRank(s.root)
	name := w.procs[r].Name
	ev := fault.SendEvent{
		Rank: gr, Name: name, Server: w.procs[s.root].Name, Items: items,
		Nominal: w.serveTransfer(s.root, r, items, s.sends),
	}
	// Per-destination jitter stream: concurrent retries against a
	// flapping link must not re-synchronize on the shared schedule.
	// Stream is the identity for jitter-free policies.
	backoff := s.pol.Backoff.Stream(int64(gr))
	for attempt := 0; ; attempt++ {
		start := s.t
		if ready > start {
			start = ready
		}
		if s.rootCrashes && s.rootCrash <= start {
			return true
		}
		d := ev.Nominal * s.plan.Slowdown(gr, start) * s.np.Slowdown(grServer, gr, start)
		arrive := start + d
		// Whether the attempt is lost decides the span it is booked
		// as, and so the span a root crash is judged against: the
		// transfer [start, arrive] when it would be delivered, the
		// timeout [start, start+Timeout] when it is lost.
		lost := s.plan.Crashed(gr, arrive) || s.plan.DropsDuring(gr, start, arrive) ||
			s.np.CutDuring(grServer, gr, start, arrive)
		if !lost && s.rootCrashes && s.rootCrash < arrive {
			// The server dies mid-transfer: the transfer is never
			// confirmed, so the partial data is discarded.
			s.book(PhaseComm, start, s.rootCrash, label+" (cut)")
			s.observe(ev, fault.SendAborted, 0)
			return true
		}
		if !lost {
			s.book(PhaseComm, start, arrive, label)
			ps, pe := start, arrive
			if s.clocks[r] > ps {
				ps = s.clocks[r]
			}
			if s.clocks[r] > pe {
				pe = s.clocks[r]
			}
			s.peerSpans[r] = append(s.peerSpans[r], Span{Phase: PhaseComm, Start: ps, End: pe, Label: label})
			if pe > s.lastEnd[r] {
				s.lastEnd[r] = pe
			}
			land(r, arrive)
			s.ledger.ReplicateHolders()
			s.observe(ev, fault.SendDelivered, d)
			if s.div != nil {
				s.div.Observe(ev.Nominal, d)
			}
			return false
		}
		tout := start + s.pol.Timeout
		if s.rootCrashes && s.rootCrash < tout {
			s.book(PhaseTimeout, start, s.rootCrash, fmt.Sprintf("timeout%s%s (cut)", s.arrow, name))
			return true
		}
		s.rep.Timeouts++
		s.book(PhaseTimeout, start, tout, fmt.Sprintf("timeout%s%s #%d", s.arrow, name, attempt+1))
		s.observe(ev, fault.SendTimedOut, 0)
		if s.div != nil {
			s.div.ObserveFailure()
		}
		if attempt >= s.pol.MaxRetries {
			s.alive[r] = false
			return false
		}
		s.rep.Retries++
		if wait := backoff.Delay(attempt); wait > 0 {
			bend := s.t + wait
			if s.rootCrashes && s.rootCrash < bend {
				s.book(PhaseBackoff, s.t, s.rootCrash, fmt.Sprintf("backoff%s%s (cut)", s.arrow, name))
				return true
			}
			s.book(PhaseBackoff, s.t, bend, fmt.Sprintf("backoff%s%s", s.arrow, name))
		}
	}
}

// endRound closes a round's pass over the port. Unless the pass lost
// the serving root already, the root either dies before it claims its
// own share and confirms completion — lost as well — or, when ownDue,
// lands its own share, which costs no port time. A rank that crashed by
// the port's current time takes what it received down with it. endRound
// marks every rank lost this round dead and returns them in rank order,
// with whether the serving root was lost.
func (s *supervisor) endRound(rootLost, ownDue bool, land func(r int, at float64)) (bool, []int) {
	if !rootLost {
		if s.rootCrashes && s.rootCrash <= s.t {
			rootLost = true
		} else if ownDue {
			land(s.root, s.t)
			s.ledger.ReplicateHolders()
		}
	}
	if rootLost {
		s.alive[s.root] = false
	}
	var lost []int
	for r := range s.alive {
		if s.alive[r] && r != s.root && s.plan.Crashed(s.w.globalRank(r), s.t) {
			s.alive[r] = false
		}
		if !s.alive[r] && !s.dead[r] {
			s.dead[r] = true
			lost = append(lost, r)
		}
	}
	return rootLost, lost
}

// living returns the ranks still alive, in rank order.
func (s *supervisor) living() []int {
	var out []int
	for r, ok := range s.alive {
		if ok {
			out = append(out, r)
		}
	}
	return out
}

// failover hands the service to the survivors' deterministic choice:
// the lowest survivor holding a fresh ledger copy. The election starts
// when the survivors notice the silence and ends after the agreement
// round. Under an active partition the electorate skips candidates cut
// off from the majority of survivors — a fresh ledger on an unreachable
// site cannot serve anyone. A nil network plan cuts nothing, so every
// survivor is a candidate.
func (s *supervisor) failover(survivors []int) {
	w := s.w
	var eligible func(int) bool
	if s.np.HasFaults() {
		eligible = func(cand int) bool {
			gc := w.globalRank(cand)
			reach := 0
			for _, r := range survivors {
				if r != cand && s.np.Reachable(gc, w.globalRank(r), s.t) {
					reach++
				}
			}
			return 2*reach >= len(survivors)-1
		}
	}
	next, _ := s.ledger.ElectRootEligible(survivors, eligible)
	start := s.t
	if s.clocks[next] > start {
		start = s.clocks[next]
	}
	if s.lastEnd[next] > start {
		start = s.lastEnd[next]
	}
	end := start + s.pol.Election
	s.serveSpans[next] = append(s.serveSpans[next], Span{
		Phase: PhaseFailover, Start: start, End: end,
		Label: fmt.Sprintf("failover %s→%s", w.procs[s.root].Name, w.procs[next].Name),
	})
	s.rep.Failovers++
	s.rep.RootPath = append(s.rep.RootPath, next)
	s.root = next
	s.rootCrash, s.rootCrashes = s.plan.CrashTime(w.globalRank(next))
	s.t = end
	s.lastEnd[next] = end
	s.ledger.Replicate(next)
}

// failed returns the ranks declared dead, in rank order.
func (s *supervisor) failed() []int {
	var out []int
	for r, d := range s.dead {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// ftOut is one rank's outcome of a supervised collective.
type ftOut[T, R any] struct {
	payload []T
	rep     R // shared by every rank; Survivors is set per rank
	spans   []Span
	failed  bool
	sub     *World // the survivors' world; nil when nothing failed
	subRank int
}

// outcomes assembles a supervised collective's rendezvous result:
// every rank's timeline (a dead rank idles "crashed" until its crash),
// payload(r) for each survivor, the shared report, and the survivors'
// world when someone failed. It marks the dead failed so the rest of
// the program fails fast instead of deadlocking on ranks that will
// never arrive.
func outcomes[T, R any](s *supervisor, rep R, payload func(r int) []T) ([]float64, []float64, []any, error) {
	w := s.w
	p := w.Size()
	failed := s.failed()
	var sub *World
	subRank := make([]int, p)
	if len(failed) > 0 && len(failed) < p {
		var ranks []int
		rootPos := 0
		for r := 0; r < p; r++ {
			if !s.dead[r] {
				if r == s.root {
					rootPos = len(ranks)
				}
				subRank[r] = len(ranks)
				ranks = append(ranks, r)
			}
		}
		sub = w.subWorld(ranks, rootPos)
	}
	outputs := make([]any, p)
	for r := 0; r < p; r++ {
		o := ftOut[T, R]{rep: rep, failed: s.dead[r]}
		o.spans = append(append([]Span(nil), s.peerSpans[r]...), s.serveSpans[r]...)
		if o.failed {
			start := s.clocks[r]
			if s.lastEnd[r] > start {
				start = s.lastEnd[r]
			}
			if ct, ok := s.plan.CrashTime(w.globalRank(r)); ok && ct > start {
				o.spans = append(o.spans, Span{Phase: PhaseIdle, Start: start, End: ct, Label: "crashed"})
			}
		} else {
			o.payload = payload(r)
			o.sub, o.subRank = sub, subRank[r]
		}
		outputs[r] = o
	}
	for _, r := range failed {
		w.markFailed(r, fmt.Errorf("mpi: rank %d lost to injected fault: %w", r, ErrRankFailed))
	}
	return s.clocks, s.clocks, outputs, nil
}

// join replays the rank's timeline onto its clock and sets sup's
// Survivors to the communicator the rank continues on; a rank declared
// dead gets an error wrapping ErrRankFailed instead.
func (o ftOut[T, R]) join(c *Comm, sup *Supervision) error {
	c.playSpans(o.spans)
	if o.failed {
		return fmt.Errorf("mpi: rank %d: %w", c.rank, ErrRankFailed)
	}
	sup.Survivors = c
	if o.sub != nil {
		sup.Survivors = &Comm{world: o.sub, rank: o.subRank, clock: c.clock, stats: c.stats}
	}
	return nil
}

// FaultTolerantScatterv distributes data from the root like Scatterv,
// but supervises every transfer against the world's fault plan:
// timed-out sends are retried with capped exponential backoff, ranks
// that crash or exhaust their retries are declared dead and their
// items re-balanced over the survivors in further scatter rounds, and
// a crash of the serving root itself triggers a deterministic
// re-election that resumes the scatter from the replicated ledger's
// last checkpoint. Ranks declared dead receive an error wrapping
// ErrRankFailed; surviving ranks receive their (possibly enlarged)
// chunk and a report with a communicator over the survivors rooted at
// the final serving root.
func FaultTolerantScatterv[T any](c *Comm, data []T, counts []int) ([]T, *ScatterReport, error) {
	type in struct {
		data   []T
		counts []int
	}
	out, err := c.rendezvous(in{data, counts}, func(w *World, clocks []float64, inputs []any) ([]float64, []float64, []any, error) {
		p := w.Size()
		origRoot := w.rootRank
		rootIn := inputs[origRoot].(in)
		counts := rootIn.counts
		if len(counts) != p {
			return nil, nil, nil, fmt.Errorf("mpi: scatterv with %d counts for %d ranks", len(counts), p)
		}
		total := 0
		for i, n := range counts {
			if n < 0 {
				return nil, nil, nil, fmt.Errorf("mpi: scatterv count %d is negative", i)
			}
			total += n
		}
		if total > len(rootIn.data) {
			return nil, nil, nil, fmt.Errorf("mpi: scatterv needs %d items, root has %d", total, len(rootIn.data))
		}
		np, div := w.fc.netplan, w.fc.divergence // a nil plan is a clean network
		s := newSupervisor(w, clocks, true, div)
		ledger := s.ledger

		// Round 1 ships the requested distribution: contiguous ranges
		// of the root's buffer, in rank order.
		assign := make([][]fault.Range, p)
		off := 0
		for r, n := range counts {
			if n > 0 {
				assign[r] = []fault.Range{{Lo: off, Hi: off + n}}
			}
			off += n
		}
		deliver := func(r int, at float64) {
			for _, rg := range assign[r] {
				ledger.Deliver(r, rg, at)
			}
			assign[r] = nil
		}

		var rebalances []Rebalance
		roundMode := "" // how the current round's assignments were computed
		for round := 1; ; round++ {
			s.rep.Rounds = round
			// Serve the round's recipients in rank order over the
			// serving root's single port.
			rootLost := false
			for r := 0; r < p && !rootLost; r++ {
				if r == s.root || !s.alive[r] || len(assign[r]) == 0 {
					continue
				}
				verb := "send"
				switch {
				case roundMode == RebalanceDiffuse:
					verb = "diffuse"
				case s.root != origRoot:
					verb = "resume"
				case round > 1:
					verb = "rebalance"
				}
				rootLost = s.transfer(r, fault.RangeLen(assign[r]), 0, verb+"→"+w.procs[r].Name, deliver)
			}
			// A rank lost this round (a crashed machine's partial
			// results are gone) returns what it held and what it was
			// still owed to the pool.
			rootLost, lost := s.endRound(rootLost, len(assign[s.root]) > 0, deliver)
			var pool []fault.Range
			for _, r := range lost {
				pool = append(pool, ledger.Reclaim(r, s.t)...)
				pool = append(pool, assign[r]...)
				assign[r] = nil
			}
			if rootLost {
				survivors := s.living()
				if len(survivors) == 0 {
					break
				}
				// Unsent assignments return to the pool: the successor
				// re-reads them from the scatter's durable input.
				for r := range assign {
					pool = append(pool, assign[r]...)
					assign[r] = nil
				}
				s.failover(survivors)
			}
			pool = fault.CoalesceRanges(pool)
			if len(pool) == 0 {
				if rootLost {
					continue // nothing pending; next round just confirms
				}
				break
			}

			// Re-solve the distribution problem over the survivors, in
			// service order with the root last (its share is free), and
			// ship the losses in another round.
			var survivors []int
			for r := 0; r < p; r++ {
				if r != s.root && s.alive[r] {
					survivors = append(survivors, r)
				}
			}
			survivors = append(survivors, s.root)
			n := fault.RangeLen(pool)
			solveProcs := w.rebalanceProcs(survivors)

			// Decide the re-solve mode. Structural evidence first: a
			// survivor the serving root cannot currently reach pins the
			// detector degraded (an exact DP would plan transfers over a
			// cut); a fully healed network releases the pin and lets the
			// sample vote recover on its own.
			if div != nil && np.HasFaults() {
				if np.Healed(s.t) {
					if div.Forced() {
						div.Heal()
					}
				} else {
					grServer := w.globalRank(s.root)
					for _, r := range survivors {
						if r != s.root && !np.Reachable(grServer, w.globalRank(r), s.t) {
							div.ForceDegraded()
							break
						}
					}
				}
			}
			degraded := div != nil && div.Degraded()

			dist := core.Uniform(len(survivors), n)
			mode := RebalanceUniform
			var liveAdj [][]int
			if degraded {
				// Diffusion fallback: balance over the live adjacency
				// only. Survivors cut off from the root's component get
				// nothing this round — their items would die with the
				// retries — and rejoin via later rounds after the heal.
				adj := w.liveAdjacency(survivors, s.t)
				if res, _, err := core.DiffusePool(solveProcs, adj, n); err == nil {
					dist = res.Distribution
					mode = RebalanceDiffuse
					liveAdj = adj
				}
			} else if res, err := w.Engine().Solve(solveProcs, n); err == nil {
				dist = res.Distribution
				mode = RebalanceExact
			}
			roundMode = mode
			parts := fault.SplitRanges(pool, dist)
			for pos, r := range survivors {
				assign[r] = parts[pos]
			}
			rebalances = append(rebalances, Rebalance{
				Round: round + 1, Root: s.root, Items: n,
				Ranks:     append([]int(nil), survivors...),
				Procs:     solveProcs,
				Dist:      append(core.Distribution(nil), dist...),
				Mode:      mode,
				Adjacency: liveAdj,
			})
		}

		rep := ScatterReport{
			Supervision: s.rep,
			Planned:     append(core.Distribution(nil), counts...),
			Final:       make(core.Distribution, p),
			Failed:      s.failed(),
			Rebalances:  rebalances,
		}
		for r := range rep.Final {
			rep.Final[r] = ledger.Held(r)
		}
		return outcomes(s, rep, func(r int) []T { return chunkOf(rootIn.data, ledger.Holdings(r)) })
	})
	if err != nil {
		return nil, nil, err
	}
	o := out.(ftOut[T, ScatterReport])
	rep := o.rep
	if err := o.join(c, &rep.Supervision); err != nil {
		return nil, &rep, err
	}
	c.stats.ItemsReceived += len(o.payload)
	return o.payload, &rep, nil
}

// chunkOf assembles a rank's chunk from its ledger holdings. A single
// contiguous range aliases the root's buffer (the failure-free
// zero-copy path); fragmented holdings are concatenated into a fresh
// slice, ordered by original item index.
func chunkOf[T any](data []T, holdings []fault.Range) []T {
	switch len(holdings) {
	case 0:
		return nil
	case 1:
		return data[holdings[0].Lo:holdings[0].Hi]
	}
	chunk := make([]T, 0, fault.RangeLen(holdings))
	for _, rg := range holdings {
		chunk = append(chunk, data[rg.Lo:rg.Hi]...)
	}
	return chunk
}
