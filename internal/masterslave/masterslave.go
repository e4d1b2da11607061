// Package masterslave implements the dynamic load-balancing baseline
// the paper's related work contrasts with (Section 6): a master/worker
// scheduler where idle workers request fixed-size chunks of the data
// set, as in self-adjusting master-worker frameworks (Heymann et al.)
// and the MW library. The paper's argument for its *static* approach is
// that "the dynamic load evaluation and data redistribution make the
// execution suffer from overheads that can be avoided with a static
// approach" — this package makes that trade-off measurable.
//
// The simulation uses the same hardware model as the rest of the
// repository: the master is single-port (one chunk transfer at a
// time), a worker computes its chunk and then requests the next one
// (the request itself costs a configurable per-message overhead), and
// CPU load peaks can be injected per worker.
package masterslave

import (
	"container/heap"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/simgrid"
)

// Config describes one master/worker run.
type Config struct {
	// Procs are the workers, root last (the root's CPU also works:
	// the master hands itself chunks at zero transfer cost, matching
	// the static model's free root link).
	Procs []core.Processor
	// Items is the total number of data items.
	Items int
	// ChunkSize is the number of items handed out per request. It
	// trades scheduling granularity (small chunks adapt better)
	// against communication overhead (each chunk pays the request
	// overhead and the stream restart).
	ChunkSize int
	// RequestOverhead is the time, in seconds, a worker's chunk
	// request occupies the master before the transfer starts (the
	// "dynamic load evaluation and data redistribution" overhead).
	RequestOverhead float64
	// CPULoad injects background-load windows per processor name, as
	// in simgrid.
	CPULoad map[string][]simgrid.RateWindow
}

// WorkerStats summarizes one worker's run.
type WorkerStats struct {
	// Name is the worker's processor name.
	Name string
	// Items counts the data items it processed.
	Items int
	// Chunks counts the chunk requests it made.
	Chunks int
	// Finish is the time it completed its last chunk.
	Finish float64
}

// Result is the outcome of a master/worker run.
type Result struct {
	// Makespan is the completion time of the last chunk.
	Makespan float64
	// Workers holds per-worker statistics, in processor order.
	Workers []WorkerStats
	// MasterBusy is the total time the master's port spent serving
	// requests and transfers.
	MasterBusy float64
}

// workerEvent orders workers by the time they become idle.
type workerEvent struct {
	at     float64
	worker int
	seq    int
}

type eventHeap []workerEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(workerEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Run simulates the dynamic scheduler and returns its result.
func Run(cfg Config) (Result, error) {
	if err := core.ValidateProcessors(cfg.Procs); err != nil {
		return Result{}, err
	}
	if cfg.Items < 0 {
		return Result{}, fmt.Errorf("masterslave: negative item count %d", cfg.Items)
	}
	if cfg.ChunkSize <= 0 {
		return Result{}, errors.New("masterslave: chunk size must be positive")
	}
	if cfg.RequestOverhead < 0 {
		return Result{}, errors.New("masterslave: negative request overhead")
	}

	p := len(cfg.Procs)
	cpus := make([]*simgrid.Resource, p)
	res := Result{Workers: make([]WorkerStats, p)}
	for i, pr := range cfg.Procs {
		cpus[i] = &simgrid.Resource{Name: pr.Name + "/cpu"}
		for _, w := range cfg.CPULoad[pr.Name] {
			if err := cpus[i].AddWindow(w); err != nil {
				return Result{}, err
			}
		}
		res.Workers[i].Name = pr.Name
	}

	// All workers request at time 0; the master serves requests in
	// arrival order (FIFO; ties by worker index, i.e. rank order like
	// the MPICH scatter).
	var idle eventHeap
	seq := 0
	for w := 0; w < p; w++ {
		heap.Push(&idle, workerEvent{at: 0, worker: w, seq: seq})
		seq++
	}

	remaining := cfg.Items
	masterFree := 0.0
	for remaining > 0 {
		ev := heap.Pop(&idle).(workerEvent)
		w := ev.worker
		chunk := cfg.ChunkSize
		if chunk > remaining {
			chunk = remaining
		}
		remaining -= chunk

		// The master handles the request (serialized port): overhead
		// plus the chunk transfer over the worker's link.
		start := ev.at
		if masterFree > start {
			start = masterFree
		}
		transferEnd := start + cfg.RequestOverhead + cfg.Procs[w].Comm.Eval(chunk)
		res.MasterBusy += transferEnd - start
		masterFree = transferEnd

		// The worker computes the chunk on its (possibly loaded) CPU.
		compEnd := cpus[w].FinishTime(transferEnd, cfg.Procs[w].Comp.Eval(chunk))
		res.Workers[w].Items += chunk
		res.Workers[w].Chunks++
		res.Workers[w].Finish = compEnd
		if compEnd > res.Makespan {
			res.Makespan = compEnd
		}

		heap.Push(&idle, workerEvent{at: compEnd, worker: w, seq: seq})
		seq++
	}
	return res, nil
}
