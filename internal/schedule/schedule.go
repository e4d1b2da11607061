// Package schedule builds per-processor timelines of a scatter
// operation followed by a computation phase under the paper's
// single-port model (Section 2.3): the root serializes its sends in
// rank order, so each processor idles until every predecessor has been
// served, then receives, then computes.
//
// A Timeline is the analytic realization of Eq. (1); it carries the
// per-processor idle/receive/compute segments that the paper's Figures
// 1-4 plot, plus derived metrics (makespan, imbalance, stair area).
package schedule

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// Segment is a half-open time interval [Start, End) in seconds.
type Segment struct {
	// Start and End bound the interval.
	Start, End float64
}

// Duration returns End - Start.
func (s Segment) Duration() float64 { return s.End - s.Start }

// ProcTimeline is the activity of one processor during the operation.
type ProcTimeline struct {
	// Name is the processor's name.
	Name string
	// Items is the number of data items the processor received.
	Items int
	// Recv is the interval during which the processor receives its
	// share from the root. Recv.Start is also the processor's idle
	// time: the paper's "stair effect" (Figure 1).
	Recv Segment
	// Comp is the interval during which the processor computes.
	Comp Segment
}

// Finish returns the processor's completion time (Eq. 1).
func (p ProcTimeline) Finish() float64 { return p.Comp.End }

// Idle returns the time the processor spends waiting before its
// reception begins.
func (p ProcTimeline) Idle() float64 { return p.Recv.Start }

// CommTime returns the duration of the processor's receive phase.
func (p ProcTimeline) CommTime() float64 { return p.Recv.Duration() }

// CompTime returns the duration of the processor's compute phase.
func (p ProcTimeline) CompTime() float64 { return p.Comp.Duration() }

// Timeline is the complete schedule of a scatter+compute run.
type Timeline struct {
	// Procs holds one timeline per processor, in service order
	// (root last).
	Procs []ProcTimeline
	// Makespan is the overall completion time (Eq. 2).
	Makespan float64
}

// Build computes the analytic timeline of dist over procs: processor i
// starts receiving when processor i-1 has been served, receives for
// Tcomm(i, ni), then computes for Tcomp(i, ni).
func Build(procs []core.Processor, dist core.Distribution) (Timeline, error) {
	if len(procs) != len(dist) {
		return Timeline{}, fmt.Errorf("schedule: %d processors but %d shares", len(procs), len(dist))
	}
	tl := Timeline{Procs: make([]ProcTimeline, len(procs))}
	now := 0.0
	for i, pr := range procs {
		ni := dist[i]
		recvStart := now
		recvEnd := recvStart + pr.Comm.Eval(ni)
		compEnd := recvEnd + pr.Comp.Eval(ni)
		tl.Procs[i] = ProcTimeline{
			Name:  pr.Name,
			Items: ni,
			Recv:  Segment{Start: recvStart, End: recvEnd},
			Comp:  Segment{Start: recvEnd, End: compEnd},
		}
		if compEnd > tl.Makespan {
			tl.Makespan = compEnd
		}
		now = recvEnd // single port: the next send starts here
	}
	return tl, nil
}

// FinishTimes extracts every processor's completion time.
func (t Timeline) FinishTimes() []float64 {
	out := make([]float64, len(t.Procs))
	for i, p := range t.Procs {
		out[i] = p.Finish()
	}
	return out
}

// EarliestFinish returns the smallest completion time, the number the
// paper quotes together with the latest one ("the earliest processor
// finishing after 259 s and the latest after 853 s").
func (t Timeline) EarliestFinish() float64 {
	if len(t.Procs) == 0 {
		return 0
	}
	min := t.Procs[0].Finish()
	for _, p := range t.Procs[1:] {
		if f := p.Finish(); f < min {
			min = f
		}
	}
	return min
}

// LatestFinish returns the largest completion time (the makespan).
func (t Timeline) LatestFinish() float64 { return t.Makespan }

// Imbalance returns (latest-earliest)/latest, the paper's
// load-imbalance measure.
func (t Timeline) Imbalance() float64 { return stats.Imbalance(t.FinishTimes()) }

// StairArea integrates each processor's idle time before its reception
// begins — the "surface of the bottom area delimited by the dashed
// line" the paper uses to explain why the ascending-bandwidth ordering
// of Figure 4 loses time.
func (t Timeline) StairArea() float64 {
	total := 0.0
	for _, p := range t.Procs {
		total += p.Idle()
	}
	return total
}

// TotalCompTime sums every processor's compute duration.
func (t Timeline) TotalCompTime() float64 {
	total := 0.0
	for _, p := range t.Procs {
		total += p.CompTime()
	}
	return total
}

// Utilization returns the fraction of the p*makespan time-area spent
// computing — a whole-platform efficiency measure.
func (t Timeline) Utilization() float64 {
	if t.Makespan == 0 || len(t.Procs) == 0 {
		return 0
	}
	return t.TotalCompTime() / (t.Makespan * float64(len(t.Procs)))
}
