package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config sizes one run. defaultConfig gives the sizes the command
// runs; companionConfig and the tests shrink them.
type config struct {
	workload string
	seed     int64
	// seconds is the measured phase. A traced run measures half of it
	// untraced and half traced.
	seconds float64
	// warmup is the unmeasured phase before it, on the same stream.
	warmup float64
	trace  bool
	// work holds the trace output; dir is the run's scratch directory
	// (WAL, synthetic module), removed when the run ends.
	work, dir string
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// corrupt flips one distribution entry of the first answer before
	// it is checked, so tests can prove the checks fail the run.
	corrupt bool

	// serve-*: the recovered WAL holds walGrids platforms, each with
	// walCounts distinct item counts up to walMaxItems.
	walGrids, walCounts, walMaxItems int
	// serve-churn: the base platforms' width in items, and the fixed
	// number of warm-up requests after which the heap is read.
	churnMaxItems, churnWarmupOps int
	// solve-table1: the Table 1 job size and the coarse solve size.
	solveItems, coarseItems int
	// lint-synthetic: packages and shape groups per package.
	lintPackages, lintGroups int
}

func defaultConfig(workload string, seed int64, seconds float64) config {
	return config{
		workload:       workload,
		seed:           seed,
		seconds:        seconds,
		warmup:         1.5,
		setupReps:      21,
		walGrids:       20,
		walCounts:      1000,
		walMaxItems:    4096,
		churnMaxItems:  16_384,
		churnWarmupOps: 300,
		solveItems:     50_000,
		coarseItems:    table1Rays,
		lintPackages:   8,
		lintGroups:     12,
	}
}

// companionConfig is the reduced size a traced run uses for the
// workloads other than its own.
func companionConfig(workload string, seed int64) config {
	c := defaultConfig(workload, seed, 0.6)
	c.trace = true
	c.warmup = 0.1
	c.setupReps = 1
	c.walGrids, c.walCounts, c.walMaxItems = 2, 100, 512
	c.churnMaxItems, c.churnWarmupOps = 2048, 40
	c.solveItems, c.coarseItems = 4000, 40_000
	c.lintPackages, c.lintGroups = 2, 2
	return c
}

// phase is one closed-loop measurement: per-op latency and outcomes.
type phase struct {
	lat    []float64 // milliseconds, one per attempted op
	ran    []opSpan  // when each verified op ran
	ok     int
	failed int
	d      time.Duration // the phase's length; ops started before it ends
	wall   time.Duration // until the last op ended
}

// opSpan is when an op ran, in seconds since its phase started.
type opSpan struct{ start, end float64 }

// recordMiB is the heap the phase's own per-op records hold, which
// heap_retained_mb leaves out so that it does not grow with throughput.
func (ph phase) recordMiB() float64 {
	const latBytes, spanBytes = 8, 16 // a float64; two float64s
	return float64(cap(ph.lat)*latBytes+cap(ph.ran)*spanBytes) / (1 << 20)
}

// throughputWindows is how many equal windows throughput_ops_s takes
// its median over.
const throughputWindows = 20

// windowRates splits the phase into equal windows and returns the
// verified ops completed per second in each, crediting every op to
// the windows it ran in, in proportion to the part of it that ran
// there.
func (ph phase) windowRates(n int) []float64 {
	w := ph.d.Seconds() / float64(n)
	credit := make([]float64, n)
	for _, op := range ph.ran {
		dur := op.end - op.start
		for i := max(0, int(op.start/w)); i < n && float64(i)*w < op.end; i++ {
			lo, hi := max(op.start, float64(i)*w), min(op.end, float64(i+1)*w)
			if hi > lo {
				credit[i] += (hi - lo) / dur
			}
		}
	}
	for i := range credit {
		credit[i] /= w
	}
	return credit
}

// result is one workload run.
type result struct {
	measured phase // untraced: every end-to-end metric comes from it
	traced   phase
	warmup   phase
	setup    []float64 // seconds per set-up repetition
	heapMiB  float64
	layers   map[string]float64
	checks   []check
	spans    []span
	inputs   map[string]any
	errors   []string
}

// check is one run-level correctness check (not tied to an op).
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
}

func newResult() *result {
	return &result{layers: map[string]float64{}, inputs: map[string]any{}}
}

func (r *result) check(name string, ok bool) {
	r.checks = append(r.checks, check{name, ok})
	if !ok {
		r.errors = append(r.errors, "check failed: "+name)
	}
}

func (r *result) failedChecks() int {
	n := 0
	for _, c := range r.checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// counts returns attempted and failed units of work: ops of every
// phase plus run-level checks.
func (r *result) counts() (attempted, failed int) {
	for _, ph := range []phase{r.warmup, r.measured, r.traced} {
		attempted += len(ph.lat)
		failed += ph.failed
	}
	return attempted + len(r.checks), failed + r.failedChecks()
}

var endToEndUnits = map[string]string{
	"throughput_ops_s": "ops/s",
	"latency_p50_ms":   "ms",
	"latency_p90_ms":   "ms",
	"setup_s":          "s",
	"heap_retained_mb": "MiB",
}

func (r *result) endToEnd() map[string]float64 {
	lat := sorted(r.measured.lat)
	return map[string]float64{
		"throughput_ops_s": median(r.measured.windowRates(throughputWindows)),
		"latency_p50_ms":   quantile(lat, 0.5),
		"latency_p90_ms":   quantile(lat, 0.9),
		"setup_s":          median(r.setup),
		"heap_retained_mb": r.heapMiB,
	}
}

// overhead records the tracing overhead: the traced phase's median op
// latency minus the untraced phase's.
func (r *result) overhead() {
	r.layers["trace.overhead_ms"] = median(r.traced.lat) - median(r.measured.lat)
}

// closedLoop runs op from the given number of clients, each starting
// its next op only when the previous one completed, until d has
// passed. op returns the latency it measured and whether its output
// checked out.
func closedLoop(clients int, d time.Duration, op func(client int) (time.Duration, error)) (phase, []string) {
	return closedLoopN(clients, d, 0, op)
}

// closedLoopN is closedLoop that also stops once limit ops have
// started, when limit is positive.
func closedLoopN(clients int, d time.Duration, limit int64, op func(client int) (time.Duration, error)) (phase, []string) {
	var (
		mu      sync.Mutex
		ph      phase
		errs    []string
		wg      sync.WaitGroup
		started atomic.Int64
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]float64, 0, 1024)
			ran := make([]opSpan, 0, 1024)
			ok, failed := 0, 0
			var cerrs []string
			for began := time.Since(start); began < d && (limit <= 0 || started.Add(1) <= limit); began = time.Since(start) {
				took, err := op(c)
				lat = append(lat, float64(took.Nanoseconds())/1e6)
				if err != nil {
					failed++
					if len(cerrs) < 4 {
						cerrs = append(cerrs, err.Error())
					}
					continue
				}
				ok++
				ran = append(ran, opSpan{began.Seconds(), time.Since(start).Seconds()})
			}
			mu.Lock()
			ph.lat = append(ph.lat, lat...)
			ph.ran = append(ph.ran, ran...)
			ph.ok += ok
			ph.failed += failed
			errs = append(errs, cerrs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.d, ph.wall = d, time.Since(start)
	return ph, errs
}

// measure runs the untraced measured phase, reads the retained heap,
// and, in a traced run, runs the traced phase. In a traced run each
// phase gets half of cfg.seconds.
func measure(cfg config, res *result, loop func(tr *tracer, d time.Duration) (phase, []string)) {
	d := seconds(cfg.seconds)
	if cfg.trace {
		d /= 2
	}
	var errs []string
	res.measured, errs = loop(nil, d)
	res.errors = append(res.errors, errs...)
	res.heapMiB = heapRetainedMiB() - res.warmup.recordMiB() - res.measured.recordMiB()
	if !cfg.trace {
		return
	}
	tr := newTracer()
	res.traced, errs = loop(tr, d)
	res.errors = append(res.errors, errs...)
	res.spans = tr.all()
	res.overhead()
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// timeSetup runs set-up reps times and returns the duration of each.
// Every rep but the last is torn down. Each starts after a collection,
// so that garbage from the one before does not bill it.
func timeSetup(reps int, setup func(last bool) error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := setup(i == reps-1); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// heapRetainedMiB is the live heap after two collections: the first
// leaves sync.Pool contents in the victim cache, the second frees
// them. It reads HeapAlloc, the bytes of live objects, rather than
// HeapInuse, whose span fragmentation differs from run to run.
func heapRetainedMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of a
// sorted sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
