// Package simgrid is a small discrete-event simulator for grid
// executions of scatter+compute programs under the paper's hardware
// model (Section 2.3): a single-port root that serializes its sends in
// rank order, heterogeneous links, and heterogeneous processors.
//
// Beyond the analytic timelines of internal/schedule, the simulator
// supports time-varying resource speeds — background load peaks on a
// CPU (the paper's sekhmet suffered one during the Figure 4 run) and
// bandwidth dips on a link — plus reproducible multiplicative noise,
// so the experiments can show the same secondary effects the paper
// reports.
package simgrid

import (
	"container/heap"
	"fmt"
)

// Event is a scheduled callback in virtual time.
type event struct {
	at  float64
	seq int // tie-break: FIFO among simultaneous events
	fn  func()
}

// eventQueue is a min-heap of events ordered by time then sequence.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulation kernel: a virtual clock and an
// event queue. The zero value is ready to use.
type Engine struct {
	now   float64
	queue eventQueue
	seq   int
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is an error surfaced at Run time.
func (e *Engine) At(t float64, fn func()) {
	e.seq++
	heap.Push(&e.queue, &event{at: t, seq: e.seq, fn: fn})
}

// Run executes events in time order until the queue is empty. It
// returns an error if an event was scheduled before the current time
// (causality violation).
func (e *Engine) Run() error {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.at < e.now {
			return fmt.Errorf("simgrid: event scheduled at %g, but time is already %g", ev.at, e.now)
		}
		e.now = ev.at
		ev.fn()
	}
	return nil
}
