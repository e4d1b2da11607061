package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/store"
)

// job is one admitted solve request. The handler that created it waits
// on done; the worker that claims it fills the result fields before
// closing done. Exactly one goroutine writes the fields, and only
// before the close, so waiters read them race-free.
type job struct {
	ctx   context.Context
	procs []core.Processor
	n     int
	sig   string

	done   chan struct{}
	status int
	resp   PlanResponse
	errmsg string
}

// finish publishes the job's outcome to its waiting handler.
func (j *job) finish(status int, resp PlanResponse, errmsg string) {
	j.status = status
	j.resp = resp
	j.errmsg = errmsg
	close(j.done)
}

// enqueue admits j to the bounded solve queue, shedding immediately —
// never blocking the handler — when the server is draining or the
// queue is full. It writes the shed response itself and reports
// whether the caller should wait on j.done.
//
// The draining check and the queue send happen under one critical
// section so no job can slip in after Drain observes the flag: once
// drainStarted is set, every enqueue fails, and whatever was already
// in the queue is bounded and gets rejected by the drain flush.
// The send itself is a select-with-default, so the lock is never held
// across a blocking channel operation.
func (s *Server) enqueue(w http.ResponseWriter, j *job) bool {
	s.mu.Lock()
	if s.drainStarted {
		s.stats.ShedDraining++
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: errServerClosed.Error()})
		return false
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
		return true
	default:
		s.stats.ShedQueueFull++
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error: fmt.Sprintf("solve queue saturated (%d deep); retry after backoff", cap(s.queue)),
		})
		return false
	}
}

// startWorkers launches the solver pool. Workers exit when Drain
// closes the draining channel; Drain then flushes what is left in the
// queue.
func (s *Server) startWorkers() {
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.run(j)
		case <-s.draining:
			return
		}
	}
}

// run executes one admitted job: shed it if its deadline already
// passed while queued, otherwise solve, persist, and answer.
func (s *Server) run(j *job) {
	select {
	case <-j.ctx.Done():
		// Expired (or abandoned) while queued: shed without touching
		// the engine. This is the load-shedding half of admission
		// control — a saturated server never spends solver time on
		// requests nobody is waiting for.
		s.count(func(st *Stats) { st.ShedExpired++ })
		j.finish(http.StatusGatewayTimeout, PlanResponse{}, "deadline expired while queued")
		return
	default:
	}

	res, info, err := s.solve(j.procs, j.n)
	if err != nil {
		s.count(func(st *Stats) { st.SolveErrors++ })
		j.finish(http.StatusUnprocessableEntity, PlanResponse{}, fmt.Sprintf("solve failed: %v", err))
		return
	}
	resp := PlanResponse{
		Distribution: res.Distribution,
		Makespan:     res.Makespan,
		Processors:   procNames(j.procs),
		Source:       info.Source.String(),
		Coalesced:    info.Coalesced,
		Signature:    info.Signature,
	}
	if math.IsInf(resp.Makespan, 0) || math.IsNaN(resp.Makespan) {
		// Cost constants whose products overflow float64: JSON cannot
		// carry the plan, and the store refuses it.
		s.count(func(st *Stats) { st.SolveErrors++ })
		j.finish(http.StatusUnprocessableEntity, PlanResponse{}, fmt.Sprintf("solve failed: plan costs overflow float64 (makespan %v)", resp.Makespan))
		return
	}
	s.persist(j, res)
	j.finish(http.StatusOK, resp, "")
}

// persist appends a solved plan to the durable store. Coalesced and
// cache-hit repeats dedupe to no-ops inside Append. Persistence
// failures are counted, not fatal: the daemon keeps serving from the
// engine and recovers whatever prefix the WAL kept. Every engine
// answer is exact, so every fingerprintable one is persisted.
func (s *Server) persist(j *job, res core.Result) {
	if s.st == nil || j.sig == "" {
		return
	}
	err := s.st.Append(storeEntry(j.sig, j.n, res))
	if err != nil {
		s.count(func(st *Stats) { st.PersistErrors++ })
	}
}

// Drain gracefully stops the server: new requests are rejected,
// in-flight solves run to completion, and everything still queued is
// answered with 503. Idempotent; safe to call concurrently. After
// Drain returns no goroutine owned by the server is running, so the
// caller may close the store.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.drainStarted {
		s.mu.Unlock()
		<-s.drained
		return
	}
	s.drainStarted = true
	s.mu.Unlock()

	close(s.draining)
	s.wg.Wait()

	// Workers are gone; nothing else reads the queue, and enqueue has
	// rejected every request since drainStarted was set. Flush the
	// stragglers so no handler is left waiting on a job forever.
	for {
		select {
		case j := <-s.queue:
			s.count(func(st *Stats) { st.ShedDraining++ })
			j.finish(http.StatusServiceUnavailable, PlanResponse{}, errServerClosed.Error())
		default:
			close(s.drained)
			return
		}
	}
}

// storeEntry converts a solved result to its durable form.
func storeEntry(sig string, n int, res core.Result) store.Entry {
	return store.Entry{
		Sig:      sig,
		Items:    n,
		Makespan: res.Makespan,
		Dist:     res.Distribution,
	}
}
