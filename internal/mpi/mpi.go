// Package mpi is an in-process, virtual-time message-passing runtime
// modeled on the MPI subset the paper's application uses: SPMD ranks,
// MPI_Scatter / MPI_Scatterv, gather, broadcast, barrier and reduce.
//
// Ranks run as goroutines, each with its own virtual clock. Collective
// timing follows the paper's Section 2.3 hardware model:
//
//   - the root is single-port: it sends to one destination at a time;
//   - destinations are served in rank order, exactly as the MPICH
//     implementation the paper relies on ("the order of the destination
//     processors in scatter operations follows the processors ranks");
//   - the time to ship x items from the root to rank i is the
//     processor's Tcomm(i, x) cost function;
//   - computation is charged explicitly via Comm.ChargeItems (using the
//     processor's Tcomp) or Comm.Charge (raw seconds), so a program can
//     either model its computation or really perform it and self-time.
//
// This substrate replaces the paper's Globus + MPICH-G2 testbed: the
// same program text (read data, scatter, compute) runs against the
// Table 1 cost model and yields the per-processor timelines plotted in
// the paper's figures.
package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/monitor"
)

// ErrRankFailed is the sentinel wrapped by every error caused by a
// failed rank: a collective entered after a rank errored or crashed, a
// receive from a dead peer, or the outcome handed to a rank that an
// injected fault killed. Callers test for it with errors.Is.
var ErrRankFailed = errors.New("mpi: rank failed")

// World owns the shared state of one SPMD run.
type World struct {
	procs    []core.Processor
	rootRank int

	// transfer overrides the default star transfer model when set
	// (SetTransferModel); parentRanks maps a sub-world's ranks back to
	// the parent's (nil for a top-level world); topRanks maps them all
	// the way to the top-level world's numbering, which is what fault
	// plans are keyed by. See split.go.
	transfer    TransferModel
	parentRanks []int
	topRanks    []int

	// fc is the failure-injection configuration, inherited by
	// sub-worlds. See ftscatter.go.
	fc faultConfig

	// engine is the incremental solver shared with every sub-world, so
	// failover re-solves warm-start from the plans built by earlier
	// rounds (core.Plan suffix reuse). It has its own lock.
	engine *core.Engine

	mu          sync.Mutex
	collectives map[int]*collective      //scatterlint:guardedby mu
	mailboxes   map[pairTag]chan message //scatterlint:guardedby mu
	failed      map[int]error            //scatterlint:guardedby mu
	failCh      chan struct{}            //scatterlint:guardedby mu — closed and replaced on every failure
}

// faultConfig groups the failure-related knobs of a world.
type faultConfig struct {
	plan      *fault.Plan
	policy    fault.Policy
	observer  func(fault.SendEvent)
	rebalance func(ranks []int) []core.Processor
	// netplan carries network-level faults (partitions, flaps,
	// degrades) keyed by global rank pairs; nil means a clean network.
	netplan *fault.NetPlan
	// divergence, when set, tracks planned-vs-observed transfer costs
	// and decides when re-solves switch to the diffusion fallback.
	divergence *monitor.Divergence
	// adjacency is the rank-level diffusion topology (global-rank
	// indexed, symmetric); nil means all pairs are adjacent.
	adjacency [][]int
}

// pairTag identifies a point-to-point FIFO channel.
type pairTag struct{ from, to int }

// message is a point-to-point payload with its arrival time.
type message struct {
	data    any
	arrives float64
}

// NewWorld creates a world of len(procs) ranks. Rank i is modeled by
// procs[i]; rootRank designates the data-holding root whose sends are
// serialized. procs[rootRank] should have a zero communication cost
// (it talks to itself).
func NewWorld(procs []core.Processor, rootRank int) (*World, error) {
	if err := core.ValidateProcessors(procs); err != nil {
		return nil, err
	}
	if rootRank < 0 || rootRank >= len(procs) {
		return nil, fmt.Errorf("mpi: root rank %d out of range [0, %d)", rootRank, len(procs))
	}
	return &World{
		procs:       procs,
		rootRank:    rootRank,
		engine:      core.NewEngine(0),
		collectives: make(map[int]*collective),
		mailboxes:   make(map[pairTag]chan message),
		failCh:      make(chan struct{}),
	}, nil
}

// Engine returns the world's incremental solver (shared across
// sub-worlds), creating it on first use for worlds predating it.
func (w *World) Engine() *core.Engine {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.engine == nil {
		w.engine = core.NewEngine(0)
	}
	return w.engine
}

// globalRank maps a rank of this world to the top-level world's
// numbering (identity for a top-level world). Fault plans are keyed by
// top-level ranks, so injected faults follow a processor through
// communicator splits.
func (w *World) globalRank(rank int) int {
	if w.topRanks == nil {
		return rank
	}
	return w.topRanks[rank]
}

// markFailed records that a rank is gone — its program returned an
// error, panicked, or an injected fault killed it — and wakes everyone
// waiting on it: pending collectives complete with ErrRankFailed, and
// blocked point-to-point receives re-check their peer.
func (w *World) markFailed(rank int, cause error) {
	w.mu.Lock()
	if w.failed == nil {
		w.failed = make(map[int]error)
	}
	if _, dup := w.failed[rank]; dup {
		w.mu.Unlock()
		return
	}
	w.failed[rank] = cause
	// Fail pending collectives in sequence order, not map order, so
	// every run delivers ErrRankFailed wakeups in the same order and
	// fault traces replay identically.
	seqs := make([]int, 0, len(w.collectives))
	for seq := range w.collectives {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	pending := make([]*collective, 0, len(seqs))
	for _, seq := range seqs {
		pending = append(pending, w.collectives[seq])
	}
	close(w.failCh)
	w.failCh = make(chan struct{})
	w.mu.Unlock()
	for _, st := range pending {
		st.fail(fmt.Errorf("mpi: rank %d failed: %w", rank, ErrRankFailed))
	}
}

// firstFailed returns the lowest failed rank, if any.
func (w *World) firstFailed() (int, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	first, ok := -1, false
	for r := range w.failed {
		if !ok || r < first {
			first, ok = r, true
		}
	}
	return first, ok
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.procs) }

// Root returns the root rank.
func (w *World) Root() int { return w.rootRank }

// transferTime models shipping x items between two ranks, through the
// custom TransferModel when one is installed and the star model
// otherwise.
func (w *World) transferTime(from, to, items int) float64 {
	if w.transfer != nil {
		return w.transfer(from, to, items)
	}
	return w.starTransfer(from, to, items)
}

// starTransfer is the default model: transfers to/from the root use
// the destination's (resp. source's) Tcomm; a transfer between two
// non-root ranks is routed through the star topology and pays both
// legs. Self-transfers are free.
func (w *World) starTransfer(from, to, items int) float64 {
	if from == to {
		return 0
	}
	if from == w.rootRank {
		return w.procs[to].Comm.Eval(items)
	}
	if to == w.rootRank {
		return w.procs[from].Comm.Eval(items)
	}
	return w.procs[from].Comm.Eval(items) + w.procs[to].Comm.Eval(items)
}

// Phase labels how a rank spent a span of virtual time.
type Phase int

const (
	// PhaseIdle is time spent waiting for data or peers.
	PhaseIdle Phase = iota
	// PhaseComm is time spent sending or receiving.
	PhaseComm
	// PhaseComp is time spent computing.
	PhaseComp
	// PhaseTimeout is time the root's port spends waiting for a send
	// that is never acknowledged (counted as communication time).
	PhaseTimeout
	// PhaseBackoff is time spent waiting before a retry (counted as
	// idle time).
	PhaseBackoff
	// PhaseFailover is time a survivor spends detecting a dead root
	// and running the re-election protocol before taking over as the
	// serving root (counted as idle time).
	PhaseFailover
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseComm:
		return "comm"
	case PhaseComp:
		return "comp"
	case PhaseTimeout:
		return "timeout"
	case PhaseBackoff:
		return "backoff"
	case PhaseFailover:
		return "failover"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Span is one interval of a rank's activity.
type Span struct {
	// Phase classifies the activity.
	Phase Phase
	// Start and End bound the interval in virtual seconds.
	Start, End float64
	// Label distinguishes spans of the same phase in traces: the
	// fault-tolerant scatter labels sends, retries, timeouts and
	// rebalance rounds. Empty for ordinary operations.
	Label string
}

// RankStats summarizes one rank's run.
type RankStats struct {
	// Rank is the rank number.
	Rank int
	// Name is the backing processor's name.
	Name string
	// Finish is the rank's final virtual clock.
	Finish float64
	// CommTime, CompTime and IdleTime total the time by phase.
	CommTime, CompTime, IdleTime float64
	// ItemsReceived counts data items received in scatters.
	ItemsReceived int
	// Spans is the rank's full activity timeline.
	Spans []Span
}

// Comm is a rank's handle on the world — the argument every SPMD
// program receives.
type Comm struct {
	world *World
	rank  int
	clock float64

	nextCollective int
	// stats is shared between a rank's top-level handle and any
	// sub-communicator handles derived from it via Split, so every
	// span is recorded exactly once.
	stats *RankStats
}

// Rank returns this rank's number.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.Size() }

// Root returns the world's root rank.
func (c *Comm) Root() int { return c.world.rootRank }

// IsRoot reports whether this rank is the root.
func (c *Comm) IsRoot() bool { return c.rank == c.world.rootRank }

// Clock returns the rank's current virtual time in seconds.
func (c *Comm) Clock() float64 { return c.clock }

// Processor returns the core.Processor modeling this rank.
func (c *Comm) Processor() core.Processor { return c.world.procs[c.rank] }

// advance moves the clock forward by d seconds of the given phase.
func (c *Comm) advance(d float64, phase Phase) { c.advanceLabeled(d, phase, "") }

// advanceLabeled moves the clock forward by d seconds, recording a
// labeled span. Timeouts tie up the port and count as communication
// time; backoffs count as idle time.
func (c *Comm) advanceLabeled(d float64, phase Phase, label string) {
	if d > 0 {
		c.book(d, c.clock+d, phase, label)
	}
}

// book records a span of d seconds from the clock to end and moves the
// clock to end.
func (c *Comm) book(d, end float64, phase Phase, label string) {
	c.stats.Spans = append(c.stats.Spans, Span{Phase: phase, Start: c.clock, End: end, Label: label})
	switch phase {
	case PhaseComm, PhaseTimeout:
		c.stats.CommTime += d
	case PhaseComp:
		c.stats.CompTime += d
	default:
		c.stats.IdleTime += d
	}
	c.clock = end
}

// playSpans replays precomputed absolute-time spans onto the rank's
// clock and statistics, idling across any gaps. Each span ends, and
// starts unless the clock is already past it, at exactly the instants
// booked, not an ulp away as clock + (t - clock) could land. Used by
// collectives whose timing is too rich for a single (commStart,
// outClock) pair.
func (c *Comm) playSpans(spans []Span) {
	for _, s := range spans {
		if d := s.Start - c.clock; d > 0 {
			c.book(d, s.Start, PhaseIdle, "")
		}
		if d := s.End - c.clock; d > 0 {
			c.book(d, s.End, s.Phase, s.Label)
		}
	}
}

// advanceTo idles until absolute time t (no-op if t is in the past).
func (c *Comm) advanceTo(t float64, phase Phase) { c.advance(t-c.clock, phase) }

// Charge accounts d virtual seconds of computation.
func (c *Comm) Charge(d float64) {
	if d < 0 {
		d = 0
	}
	c.advance(d, PhaseComp)
}

// ChargeItems accounts the computation of n data items using the
// rank's Tcomp cost function — the virtual-time analogue of calling
// compute_work on an n-item buffer.
func (c *Comm) ChargeItems(n int) {
	c.Charge(c.world.procs[c.rank].Comp.Eval(n))
}

// Stats returns a copy of the rank's statistics so far.
func (c *Comm) Stats() RankStats {
	s := *c.stats
	s.Rank = c.rank
	s.Name = c.world.procs[c.rank].Name
	s.Finish = c.clock
	s.Spans = append([]Span(nil), c.stats.Spans...)
	return s
}

// mailbox returns (creating if needed) the FIFO channel for a pair.
func (w *World) mailbox(from, to int) chan message {
	w.mu.Lock()
	defer w.mu.Unlock()
	tag := pairTag{from, to}
	mb, ok := w.mailboxes[tag]
	if !ok {
		mb = make(chan message, 1024)
		w.mailboxes[tag] = mb
	}
	return mb
}

// Send ships a value of nitems data items to rank `to` (eager,
// buffered: the sender's clock advances by the transfer time and does
// not wait for the receiver).
func (c *Comm) Send(to int, data any, nitems int) error {
	if to < 0 || to >= c.Size() {
		return fmt.Errorf("mpi: send to rank %d out of range", to)
	}
	d := c.world.transferTime(c.rank, to, nitems)
	c.advance(d, PhaseComm)
	c.world.mailbox(c.rank, to) <- message{data: data, arrives: c.clock}
	return nil
}

// Recv receives the next value from rank `from`, idling until the
// message's arrival time if it is still in flight. If the sender fails
// before sending, Recv returns ErrRankFailed instead of blocking
// forever.
func (c *Comm) Recv(from int) (any, error) {
	if from < 0 || from >= c.Size() {
		return nil, fmt.Errorf("mpi: recv from rank %d out of range", from)
	}
	msg, err := c.awaitMessage(from)
	if err != nil {
		return nil, err
	}
	c.advanceTo(msg.arrives, PhaseIdle)
	return msg.data, nil
}

// awaitMessage blocks until a message from `from` is available or the
// sender is marked failed with nothing buffered. Buffered messages win
// over failure: data sent before the sender died is still delivered.
func (c *Comm) awaitMessage(from int) (message, error) {
	w := c.world
	mb := w.mailbox(from, c.rank)
	for {
		select {
		case msg := <-mb:
			return msg, nil
		default:
		}
		w.mu.Lock()
		_, dead := w.failed[from]
		ch := w.failCh
		w.mu.Unlock()
		if dead {
			return message{}, fmt.Errorf("mpi: recv from failed rank %d: %w", from, ErrRankFailed)
		}
		select {
		case msg := <-mb:
			return msg, nil
		case <-ch:
			// A rank failed somewhere; re-check whether it was our peer.
		}
	}
}

// Program is an SPMD program body, executed once per rank.
type Program func(c *Comm) error

// Run executes the program on every rank and returns the per-rank
// statistics (indexed by rank). It fails if any rank returns an error
// or panics.
func Run(w *World, program Program) ([]RankStats, error) {
	p := w.Size()
	stats := make([]RankStats, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{world: w, rank: rank, stats: &RankStats{}}
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, r)
				}
				if errs[rank] != nil {
					// Wake peers blocked on this rank instead of
					// deadlocking the whole world.
					w.markFailed(rank, errs[rank])
				}
				stats[rank] = c.Stats()
			}()
			errs[rank] = program(c)
		}(rank)
	}
	wg.Wait()
	var firstErr error
	for rank, err := range errs {
		if err != nil {
			firstErr = errors.Join(firstErr, fmt.Errorf("rank %d: %w", rank, err))
		}
	}
	return stats, firstErr
}

// Makespan returns the largest finish time among the ranks.
func Makespan(stats []RankStats) float64 {
	max := 0.0
	for _, s := range stats {
		if s.Finish > max {
			max = s.Finish
		}
	}
	return max
}
