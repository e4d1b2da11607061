// Package serve implements scatterd's HTTP planning service: a
// long-lived daemon wrapping core.Engine that stays correct and
// responsive under concurrent load, overload, and crashes.
//
// Three endpoints:
//
//	POST /v1/plan   — solve a distribution for {platform, items}
//	GET  /healthz   — liveness ("ok", or 503 "draining" during drain)
//	GET  /statsz    — JSON counters incl. core.EngineStats
//
// The robustness model (DESIGN.md §14):
//
//   - Admission control: solve requests pass through a bounded queue
//     served by a fixed worker pool. A full queue sheds immediately
//     with 503 + Retry-After instead of building an unbounded backlog;
//     a request whose deadline expires while queued is shed without
//     ever reaching the engine. Deadlines propagate from the client
//     (request timeout field, capped by the server) and from client
//     disconnects via the request context.
//   - Durability: every fingerprintable solve is appended to the
//     durable plan store (internal/store), and exact (signature,
//     items) repeats — including after a restart — are answered from
//     it in O(1) without touching the engine. A body whose exact bytes
//     were already answered from the store is answered from a bounded
//     memo of encoded responses before it is even parsed (memo.go).
//   - Graceful drain: Drain stops admission, lets in-flight solves
//     finish, rejects queued requests cleanly, and only then returns,
//     so SIGTERM never tears a WAL append or strands a caller.
//
// The package deliberately reads no wall clock: all timing flows
// through request contexts (stdlib deadline machinery), which keeps
// the daemon's logic deterministic under test and inside the repo's
// simulated-time lint discipline.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/store"
)

// SolveFunc answers a distribution request. The default is an
// engine-backed solver; tests inject gates and failures through it.
type SolveFunc func(procs []core.Processor, n int) (core.Result, core.SolveInfo, error)

// Config configures a Server. The zero value serves with defaults.
type Config struct {
	// Engine is the incremental solver; a fresh one is created when
	// nil.
	Engine *core.Engine
	// Store is the durable plan store; nil disables persistence.
	Store *store.Store
	// QueueDepth bounds the solve queue (default 64). Requests beyond
	// it are shed with 503.
	QueueDepth int
	// Workers is the number of concurrent solver workers (default 4).
	Workers int
	// DefaultTimeout bounds a request that carries no timeout of its
	// own; 0 means no server-imposed deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (default 5m).
	MaxTimeout time.Duration
	// MaxItems rejects larger solve requests (default 10,000,000).
	MaxItems int
	// MaxProcessors rejects wider platforms (default 4096).
	MaxProcessors int
	// MaxBodyBytes caps the request body (default 1 MiB).
	MaxBodyBytes int64
	// RetryAfterSeconds is the Retry-After hint on shed responses
	// (default 1).
	RetryAfterSeconds int
	// Solve overrides the engine-backed solver (tests).
	Solve SolveFunc
}

// Stats is the /statsz payload.
type Stats struct {
	// Requests counts POST /v1/plan requests accepted for parsing.
	Requests int64 `json:"requests"`
	// Planned counts 200 responses.
	Planned int64 `json:"planned"`
	// StoreHits counts plans answered from the durable store without
	// touching the engine.
	StoreHits int64 `json:"storeHits"`
	// ShedQueueFull counts requests rejected because the solve queue
	// was saturated.
	ShedQueueFull int64 `json:"shedQueueFull"`
	// ShedExpired counts queued requests whose deadline passed before
	// a worker picked them up.
	ShedExpired int64 `json:"shedExpired"`
	// ShedDraining counts requests rejected during drain.
	ShedDraining int64 `json:"shedDraining"`
	// BadRequests counts malformed or out-of-bounds requests.
	BadRequests int64 `json:"badRequests"`
	// SolveErrors counts solver rejections of admitted requests.
	SolveErrors int64 `json:"solveErrors"`
	// PersistErrors counts WAL append failures (non-fatal; the daemon
	// keeps serving from the engine).
	PersistErrors int64 `json:"persistErrors"`
	// Abandoned counts requests whose caller's deadline fired while a
	// worker was still solving; the solve completes and warms the
	// cache, but the response was never delivered.
	Abandoned int64 `json:"abandoned"`
	// QueueDepth is the instantaneous queue length.
	QueueDepth int `json:"queueDepth"`
	// QueueCapacity is the configured bound.
	QueueCapacity int `json:"queueCapacity"`
	// Workers is the solver pool size.
	Workers int `json:"workers"`
	// Draining reports that Drain has begun.
	Draining bool `json:"draining"`
	// StoreEntries is the number of live plans in the durable store
	// (-1 without a store).
	StoreEntries int `json:"storeEntries"`
	// Engine is the solver engine's own counters.
	Engine core.EngineStats `json:"engine"`
}

// PlanRequest is the POST /v1/plan body.
type PlanRequest struct {
	// Platform is the grid description (internal/platform JSON form).
	Platform platform.Platform `json:"platform"`
	// Items is the number of items to distribute.
	Items int `json:"items"`
	// Ordering optionally selects the service order: "as-listed",
	// "descending-bandwidth" (default; the paper's Theorem 3 policy),
	// or "ascending-bandwidth".
	Ordering string `json:"ordering,omitempty"`
	// TimeoutMs optionally bounds how long the caller is willing to
	// wait; the server sheds the request once it expires.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// PlanResponse is the POST /v1/plan success body.
type PlanResponse struct {
	// Distribution is the per-processor item share, service order.
	Distribution []int `json:"distribution"`
	// Makespan is the predicted completion time (virtual seconds).
	Makespan float64 `json:"makespan"`
	// Processors names the processors in service order (root last).
	Processors []string `json:"processors"`
	// Source reports how the plan was produced: "store", "cache",
	// "warm", "cold", "coarse" (certified), or "fallback". Every
	// answer is exact.
	Source string `json:"source"`
	// Coalesced reports the solve was shared with an identical
	// concurrent request.
	Coalesced bool `json:"coalesced,omitempty"`
	// Signature is the canonical platform signature ("" when the
	// platform is not fingerprintable).
	Signature string `json:"signature,omitempty"`
}

// errorResponse is every non-200 body.
type errorResponse struct {
	Error string `json:"error"`
}

// Server is the scatterd HTTP service. Create with NewServer; it is an
// http.Handler. Safe for concurrent use.
type Server struct {
	cfg    Config
	engine *core.Engine
	st     *store.Store
	solve  SolveFunc
	mux    *http.ServeMux

	queue    chan *job
	draining chan struct{}
	drained  chan struct{}
	wg       sync.WaitGroup

	memo respMemo

	mu           sync.Mutex
	drainStarted bool  //scatterlint:guardedby mu
	stats        Stats //scatterlint:guardedby mu
}

// NewServer builds the service and starts its worker pool. Callers own
// the store's lifecycle: Drain the server, then close the store.
func NewServer(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	if cfg.MaxItems <= 0 {
		cfg.MaxItems = 10_000_000
	}
	if cfg.MaxProcessors <= 0 {
		cfg.MaxProcessors = 4096
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = 1
	}
	s := &Server{
		cfg:      cfg,
		engine:   cfg.Engine,
		st:       cfg.Store,
		solve:    cfg.Solve,
		queue:    make(chan *job, cfg.QueueDepth),
		draining: make(chan struct{}),
		drained:  make(chan struct{}),
	}
	if s.engine == nil {
		s.engine = core.NewEngine(0)
	}
	if s.solve == nil {
		s.solve = s.engine.SolveDetailed
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.startWorkers()
	return s
}

// Engine returns the server's solver engine.
func (s *Server) Engine() *core.Engine { return s.engine }

// ServeHTTP dispatches to the daemon's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.Draining = s.drainStarted
	s.mu.Unlock()
	st.QueueDepth = len(s.queue)
	st.QueueCapacity = cap(s.queue)
	st.Workers = s.cfg.Workers
	st.StoreEntries = -1
	if s.st != nil {
		st.StoreEntries = s.st.Len()
	}
	st.Engine = s.engine.Stats()
	return st
}

// count mutates the counter block under the stats lock.
func (s *Server) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.drainStarted
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handlePlan parses, validates, and admits a solve request, then waits
// for its worker (or its deadline) on behalf of the client.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	s.count(func(st *Stats) { st.Requests++ })

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.badRequest(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.badRequest(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	if resp, ok := s.memo.get(body); ok {
		s.storeHit(w, resp)
		return
	}

	var req PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.badRequest(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if dec.Decode(&struct{}{}) != io.EOF {
		s.badRequest(w, http.StatusBadRequest, "bad request body: data after the request object")
		return
	}
	procs, errmsg := s.admitRequest(req)
	if errmsg != "" {
		s.badRequest(w, http.StatusBadRequest, errmsg)
		return
	}

	sig, _ := core.PlatformSignature(procs)
	if sig != "" && s.st != nil {
		if e, ok := s.st.Get(sig, req.Items); ok {
			resp := encodeJSON(PlanResponse{
				Distribution: e.Dist,
				Makespan:     e.Makespan,
				Processors:   procNames(procs),
				Source:       "store",
				Signature:    sig,
			})
			s.memo.put(body, resp)
			s.storeHit(w, resp)
			return
		}
	}

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	j := &job{ctx: ctx, procs: procs, n: req.Items, sig: sig, done: make(chan struct{})}
	if !s.enqueue(w, j) {
		return
	}
	select {
	case <-j.done:
		if j.status == http.StatusOK {
			s.count(func(st *Stats) { st.Planned++ })
			writeJSON(w, http.StatusOK, j.resp)
			return
		}
		if j.status == http.StatusServiceUnavailable || j.status == http.StatusGatewayTimeout {
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
		}
		writeJSON(w, j.status, errorResponse{Error: j.errmsg})
	case <-ctx.Done():
		// The caller's budget ran out while the solve was still in
		// flight. The worker finishes and warms the cache; this caller
		// gets a timeout now.
		s.count(func(st *Stats) { st.Abandoned++ })
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "deadline exceeded before a plan was ready; retry to hit the warmed cache"})
	}
}

// admitRequest validates the request and expands the platform into
// service-ordered processors, returning an error message for 400s.
func (s *Server) admitRequest(req PlanRequest) ([]core.Processor, string) {
	if req.Items < 0 {
		return nil, fmt.Sprintf("items = %d, want >= 0", req.Items)
	}
	if req.Items > s.cfg.MaxItems {
		return nil, fmt.Sprintf("items = %d exceeds the admission cap %d", req.Items, s.cfg.MaxItems)
	}
	if req.TimeoutMs < 0 {
		return nil, fmt.Sprintf("timeoutMs = %d, want >= 0", req.TimeoutMs)
	}
	var policy platform.Ordering
	switch req.Ordering {
	case "", "descending-bandwidth":
		policy = platform.OrderDescendingBandwidth
	case "as-listed":
		policy = platform.OrderAsListed
	case "ascending-bandwidth":
		policy = platform.OrderAscendingBandwidth
	default:
		return nil, fmt.Sprintf("unknown ordering %q", req.Ordering)
	}
	// Cap the processor count before expanding the machines, so that
	// one huge "cpus" value cannot allocate the processors it names.
	cpus := 0
	for _, m := range req.Platform.Machines {
		if m.CPUs > s.cfg.MaxProcessors-cpus {
			return nil, fmt.Sprintf("platform exceeds the admission cap of %d processors", s.cfg.MaxProcessors)
		}
		cpus += max(m.CPUs, 0)
	}
	procs, err := req.Platform.ProcessorsOrdered(policy)
	if err != nil {
		return nil, err.Error()
	}
	return procs, ""
}

// badRequest answers a request the daemon refuses to admit (400, or
// 413 for an oversized body).
func (s *Server) badRequest(w http.ResponseWriter, status int, msg string) {
	s.count(func(st *Stats) { st.BadRequests++ })
	writeJSON(w, status, errorResponse{Error: msg})
}

// storeHit answers a store hit with its encoded response, whether the
// memo or the store supplied it.
func (s *Server) storeHit(w http.ResponseWriter, resp []byte) {
	s.count(func(st *Stats) { st.StoreHits++; st.Planned++ })
	writeBody(w, http.StatusOK, resp)
}

func procNames(procs []core.Processor) []string {
	names := make([]string, len(procs))
	for i, p := range procs {
		names[i] = p.Name
	}
	return names
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, encodeJSON(v))
}

// encodeJSON renders v as a response body. Every response, memoised
// or not, is encoded here.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		// Only a non-finite float fails to encode, and no response
		// carries one: the store rejects them and run answers 422.
		panic(fmt.Sprintf("serve: encode response: %v", err))
	}
	return buf.Bytes()
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		// The client is gone or stalled; nothing useful left to do.
		_ = err
	}
}

var errServerClosed = errors.New("serve: server draining")
