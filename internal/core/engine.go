package core

import (
	"container/list"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cost"
)

// PlatformClass returns the weakest analytic class among all cost
// functions of procs: the class that decides which solver is safe for
// the platform. It is the single dispatch rule shared by the Engine,
// the mpi runtime, the chaos harness and scatter.Balance.
func PlatformClass(procs []Processor) cost.Class {
	class := cost.LinearClass
	for _, p := range procs {
		for _, f := range []cost.Function{p.Comm, p.Comp} {
			if c := cost.ClassOf(f); c < class {
				class = c
			}
		}
	}
	return class
}

// EngineStats counts how the Engine satisfied its solves.
type EngineStats struct {
	// ColdSolves is the number of from-scratch plan builds.
	ColdSolves int
	// Resolves is the number of warm starts: a cached plan's rows were
	// partially or fully reused for a different platform or item count.
	Resolves int
	// CacheHits is the number of solves answered entirely from a cached
	// plan (O(p) reconstruction, no DP work).
	CacheHits int
	// Fallbacks is the number of solves routed to the non-incremental
	// solvers: general-class platforms (Algorithm 1) or opaque cost
	// functions that cannot be fingerprinted (fresh Algorithm 2).
	Fallbacks int
	// Coalesced is the number of solves answered by waiting on an
	// identical in-flight solve (same signature and item count) instead
	// of starting their own DP — the singleflight waiters.
	Coalesced int
	// CoarseSolves is the number of solves a coarse policy answered
	// with the certified solve (SolveCertified): Algorithm 2's answer,
	// proven without running it.
	CoarseSolves int
	// CertifyFallbacks is the number of solves on a coarse policy's
	// path whose platform was eligible (linear or affine) but whose
	// certificate refused, so the exact path answered instead; they
	// count as cold solves or resolves too. Ineligible platforms take
	// the exact path without counting here.
	CertifyFallbacks int
	// Cells is the number of DP cells the engine's plans computed:
	// cells the row kernel filled, cells whose costs a fault rebuilt
	// from published choices, and root cells. A plan computes only the
	// cells its answers read, so a cache hit or a resolve may add
	// cells too.
	Cells int
}

// SolvePolicy selects how an Engine answers solves that miss its plan
// cache. Every policy answers exactly.
type SolvePolicy int

const (
	// PolicyExact always runs the exact DP. The zero value.
	PolicyExact SolvePolicy = iota
	// PolicyCoarseRefine first tries the certified solve
	// (SolveCertified) on solves of at least CoarseMinItems items, and
	// takes the exact DP where its certificate refuses.
	PolicyCoarseRefine
)

// SolveSource classifies the path a Solve took through the engine.
type SolveSource int

const (
	// SourceCold is a from-scratch plan build.
	SourceCold SolveSource = iota
	// SourceResolve is a warm start from a cached plan's suffix rows.
	SourceResolve
	// SourceCacheHit is an O(p) answer from a retained plan.
	SourceCacheHit
	// SourceFallback is a non-incremental solve: a general-class
	// platform (Algorithm 1) or an unfingerprintable cost function
	// (fresh Algorithm 2).
	SourceFallback
	// SourceCoarse is a certified solve under a coarse policy:
	// Algorithm 2's answer, proven by SolveCertified without running
	// the DP, and not retained as a plan.
	SourceCoarse
)

// String names the source for reports and the daemon's JSON responses.
func (s SolveSource) String() string {
	switch s {
	case SourceCold:
		return "cold"
	case SourceResolve:
		return "warm"
	case SourceCacheHit:
		return "cache"
	case SourceFallback:
		return "fallback"
	case SourceCoarse:
		return "coarse"
	default:
		return "source(" + strconv.Itoa(int(s)) + ")"
	}
}

// SolveInfo describes how a solve was satisfied.
type SolveInfo struct {
	// Source is the path the answering solve took. For a coalesced
	// caller it is the leader's path.
	Source SolveSource
	// Coalesced reports that this caller did no DP work of its own: it
	// waited on an identical in-flight solve and shared its result.
	Coalesced bool
	// Signature is the canonical platform signature, or "" when the
	// platform cannot be fingerprinted (opaque or general-class costs).
	Signature string
	// Bound is the distance to the optimal makespan. Every answer is
	// exact, so it is always 0.
	Bound float64
	// LowerBound is the proven lower bound on the optimal makespan: a
	// certified answer (SourceCoarse) reports its makespan, every other
	// source 0.
	LowerBound float64
}

// PlatformSignature returns the canonical cost signature of procs — the
// per-processor comm|comp fingerprints joined with ";" — and whether
// one exists. Two platforms with equal signatures solve bit-identically
// at every item count, so the signature is a safe key for plan caches
// and the daemon's durable plan store. General-class platforms and
// platforms containing an opaque cost function have no signature.
func PlatformSignature(procs []Processor) (string, bool) {
	_, sig, ok := signature(procs)
	return sig, ok
}

// signature returns the per-processor cost fingerprints of procs and
// their join, the platform signature. ok is false when no signature
// exists: then fps is nil for a general-class platform, and otherwise
// holds "" for each processor with an opaque cost function.
func signature(procs []Processor) (fps []string, sig string, ok bool) {
	if PlatformClass(procs) == cost.General {
		return nil, "", false
	}
	fps = fingerprints(procs)
	if slices.Contains(fps, "") {
		return fps, "", false
	}
	return fps, strings.Join(fps, ";"), true
}

// Engine is the incremental solver: it answers distribution requests
// from a bounded cache of retained plans, warm-starting from the plan
// with the longest matching platform suffix and falling back to a cold
// solve only when nothing is reusable. All results are bit-identical to
// the fresh class-dispatched solvers (Algorithm 1 for general
// platforms, Algorithm 2 otherwise). Safe for concurrent use: the
// engine mutex guards only cache bookkeeping and counters, never a DP
// solve, so distinct platform signatures solve in parallel while
// identical in-flight requests coalesce onto one solve (singleflight).
type Engine struct {
	mu      sync.Mutex
	cache   *PlanCache         //scatterlint:guardedby mu
	stats   EngineStats        //scatterlint:guardedby mu
	flights map[string]*flight //scatterlint:guardedby mu

	policy    SolvePolicy //scatterlint:guardedby immutable
	coarseMin int         //scatterlint:guardedby immutable
}

// flight is one in-progress solve that identical requests wait on. Its
// result fields are written exactly once, before done is closed.
type flight struct {
	done chan struct{} //scatterlint:guardedby immutable
	res  Result        //scatterlint:guardedby immutable — written under e.mu before close(done)
	info SolveInfo     //scatterlint:guardedby immutable — written under e.mu before close(done)
	err  error         //scatterlint:guardedby immutable — written under e.mu before close(done)
}

// DefaultPlanCacheCapacity bounds an Engine's plan cache when
// NewEngine is given a non-positive capacity. Rebalance sequences
// shrink one platform signature at a time, so a handful of retained
// plans covers a whole crash cascade.
const DefaultPlanCacheCapacity = 8

// DefaultCoarseMinItems is the item count below which coarse policies
// skip the certificate and run the exact DP directly.
const DefaultCoarseMinItems = 1 << 17

// EngineConfig tunes an Engine beyond the plan-cache capacity.
type EngineConfig struct {
	// Capacity bounds the plan cache (DefaultPlanCacheCapacity when
	// <= 0).
	Capacity int
	// Policy selects whether cache-missing solves try the certified
	// solve first.
	Policy SolvePolicy
	// CoarseMinItems is the item count under which coarse policies
	// skip the certificate (DefaultCoarseMinItems when <= 0).
	CoarseMinItems int
}

// NewEngine returns an Engine whose cache holds up to capacity plans
// (DefaultPlanCacheCapacity when capacity <= 0), solving exactly.
func NewEngine(capacity int) *Engine {
	return NewEngineConfig(EngineConfig{Capacity: capacity})
}

// NewEngineConfig returns an Engine with an explicit cache capacity and
// solve policy.
func NewEngineConfig(cfg EngineConfig) *Engine {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultPlanCacheCapacity
	}
	if cfg.CoarseMinItems <= 0 {
		cfg.CoarseMinItems = DefaultCoarseMinItems
	}
	return &Engine{
		cache:     NewPlanCache(cfg.Capacity),
		flights:   make(map[string]*flight),
		policy:    cfg.Policy,
		coarseMin: cfg.CoarseMinItems,
	}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Solve computes an optimal distribution of n items over procs (service
// order, root last), reusing retained DP state whenever it provably
// cannot change the result: an exact platform-signature hit answers in
// O(p); otherwise the cached plan sharing the longest cost-fingerprint
// suffix is warm-started via Plan.resolve; otherwise a cold plan is
// built and retained. General-class platforms and opaque cost functions
// bypass the plan machinery entirely.
func (e *Engine) Solve(procs []Processor, n int) (Result, error) {
	res, _, err := e.SolveDetailed(procs, n)
	return res, err
}

// SolveDetailed is Solve, additionally reporting how the answer was
// produced. The engine mutex is held only for cache bookkeeping: the
// DP itself runs unlocked, so concurrent solves of distinct signatures
// proceed in parallel, while callers requesting an identical
// (signature, item count) pair wait on the in-flight leader and share
// its result bit-for-bit. Under a coarse policy a leader of at least
// CoarseMinItems items tries the certified solve first; a certified
// answer has no DP rows, so it is not retained.
func (e *Engine) SolveDetailed(procs []Processor, n int) (Result, SolveInfo, error) {
	fps, sig, ok := signature(procs)
	if !ok {
		e.count(func(s *EngineStats) { s.Fallbacks++ })
		var res Result
		var err error
		if fps == nil {
			res, err = Algorithm1(procs, n)
		} else {
			res, err = Algorithm2(procs, n)
		}
		return res, SolveInfo{Source: SourceFallback}, err
	}
	key := sig + "#" + strconv.Itoa(n)

	e.mu.Lock()
	if pl := e.cache.Get(sig); pl != nil && pl.n >= n {
		e.stats.CacheHits++
		e.mu.Unlock()
		// The plan may not hold the cells of n yet: the lookup fills
		// them unlocked, and concurrent lookups publish equal blocks.
		res, cells, err := pl.lookup(n, 0)
		if cells > 0 {
			e.count(func(s *EngineStats) { s.Cells += cells })
		}
		return res, SolveInfo{Source: SourceCacheHit, Signature: sig}, err
	}
	if f, ok := e.flights[key]; ok {
		// An identical solve is in flight: wait for the leader instead
		// of duplicating its DP. Identical inputs fail identically, so
		// sharing the leader's error is exact too.
		e.stats.Coalesced++
		e.mu.Unlock()
		<-f.done
		info := f.info
		info.Coalesced = true
		return f.res, info, f.err
	}
	// Leader: register the flight and pick the warm-start base under
	// the lock. Published blocks never change, so the resolve reads
	// the base unlocked even if the cache evicts it meanwhile.
	f := &flight{done: make(chan struct{})}
	e.flights[key] = f
	base := e.cache.bestSuffix(fps, n)
	e.mu.Unlock()

	var res Result
	var cert Certificate
	if e.policy != PolicyExact && n >= e.coarseMin {
		res, cert = solveCertified(procs, n)
	}
	var pl *Plan
	var cells int
	var err error
	source := SourceCoarse
	if !cert.Certified {
		source = SourceCold
		if base != nil {
			if derived, rerr := base.resolve(n, procs, fps); rerr == nil {
				pl, source = derived, SourceResolve
			}
		}
		if pl == nil {
			if err = validateDPInput(procs, n); err == nil {
				pl = newPlan(procs, fps, n, nil)
			}
		}
		if pl != nil {
			res, cells, err = pl.lookup(n, 0)
		}
	}

	e.mu.Lock()
	e.stats.Cells += cells
	info := SolveInfo{Source: source, Signature: sig}
	if err == nil {
		switch source {
		case SourceCoarse:
			e.stats.CoarseSolves++
			info.LowerBound = res.Makespan
		case SourceResolve:
			e.stats.Resolves++
		default:
			e.stats.ColdSolves++
		}
		if cert.Reason != "" && cert.Reason != errNotAffine {
			e.stats.CertifyFallbacks++
		}
		if pl != nil {
			e.cache.Put(sig, pl)
		}
	}
	f.res, f.info, f.err = res, info, err
	delete(e.flights, key)
	e.mu.Unlock()
	close(f.done)
	return f.res, f.info, f.err
}

func (e *Engine) count(f func(*EngineStats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}

// PlanCache is a bounded LRU cache of retained plans keyed by the
// canonical platform signature (the joined per-processor cost
// fingerprints). Recency is tracked structurally — a move-to-front
// list — so the cache needs no clock, which keeps it usable inside the
// simulated-time runtime. Not safe for concurrent use; the Engine
// serializes access.
type PlanCache struct {
	capacity int
	ll       *list.List // front = most recently used; element values are *cacheEntry
	byKey    map[string]*list.Element
}

type cacheEntry struct {
	key  string
	plan *Plan
}

// NewPlanCache returns a cache holding up to capacity plans (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{capacity: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int { return c.ll.Len() }

// Get returns the plan cached under sig, bumping its recency, or nil.
func (c *PlanCache) Get(sig string) *Plan {
	el, ok := c.byKey[sig]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).plan
}

// Put caches pl under sig as the most recent entry, evicting the least
// recently used plan if the cache is full.
func (c *PlanCache) Put(sig string, pl *Plan) {
	if el, ok := c.byKey[sig]; ok {
		el.Value.(*cacheEntry).plan = pl
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[sig] = c.ll.PushFront(&cacheEntry{key: sig, plan: pl})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		ent := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.byKey, ent.key)
	}
}

// bestSuffix returns the cached plan sharing the longest non-empty
// cost-fingerprint suffix with fps, restricted to plans wide enough to
// answer n items (resolve reuses suffix rows verbatim, so they must
// cover the requested width). Ties go to the more recently used plan.
func (c *PlanCache) bestSuffix(fps []string, n int) *Plan {
	var best *Plan
	bestT := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		pl := el.Value.(*cacheEntry).plan
		if pl.n < n {
			continue
		}
		t := commonFPSuffix(pl.fps, fps)
		if t > bestT {
			best, bestT = pl, t
		}
	}
	return best
}

// commonFPSuffix counts matching trailing fingerprints, stopping at
// opaque ("") entries.
func commonFPSuffix(a, b []string) int {
	t := 0
	for t < len(a) && t < len(b) {
		fp := b[len(b)-1-t]
		if fp == "" || fp != a[len(a)-1-t] {
			break
		}
		t++
	}
	return t
}
