package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/format"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/lint"
)

// The synthetic module is stdlib-only Go that scatterlint analyzes:
// mutex-guarded fields, goroutines with channels and WaitGroups,
// sync.Pool lend and return, map ranges sorted before use, and a
// seeded set of deliberate violations. Each violation's line carries
// a "want:<analyzer>" marker, which is how the run knows the exact
// findings to expect.

// synthScopes are the import-path prefixes the packages load under;
// all are inside the concurrency and determinism analyzers' scopes.
var synthScopes = []string{"repro/internal/serve", "repro/internal/store", "repro/internal/chaos"}

const synthHeader = `// Package synth%[1]d is generated by perfbench: scatterlint's workload.
package synth%[1]d

import (
	"context"
	"sort"
	"sync"
)

var f64Pool = sync.Pool{New: func() any { return make([]float64, 0, 64) }}

func getF64(n int) []float64 {
	if v := f64Pool.Get(); v != nil {
		s := v.([]float64)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

func putF64(s []float64) { f64Pool.Put(s[:0]) }
`

// synthClean is one group of clean shapes; %[1]d is the group number
// and %[2]d a seeded constant.
const synthClean = `
type Box%[1]d struct {
	mu    sync.Mutex
	n     int         //scatterlint:guardedby mu
	items map[int]int //scatterlint:guardedby mu
}

func NewBox%[1]d() *Box%[1]d {
	return &Box%[1]d{items: make(map[int]int)}
}

func (b *Box%[1]d) Add(k, v int) {
	b.mu.Lock()
	b.items[k] += v
	b.n++
	b.mu.Unlock()
}

func (b *Box%[1]d) Count(flag bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if flag {
		return b.n
	}
	return len(b.items)
}

func (b *Box%[1]d) Keys() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []int
	for k := range b.items {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func FanOut%[1]d(jobs []int) int {
	var wg sync.WaitGroup
	results := make(chan int, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			results <- j * %[2]d
		}(j)
	}
	wg.Wait()
	close(results)
	sum := 0
	for r := range results {
		sum += r
	}
	return sum
}

func Watch%[1]d(ctx context.Context, in <-chan int) <-chan int {
	out := make(chan int)
	go func() {
		defer close(out)
		for {
			select {
			case <-ctx.Done():
				return
			case v, ok := <-in:
				if !ok {
					return
				}
				select {
				case out <- v + %[2]d:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out
}

func lend%[1]d(n int) ([]float64, func()) {
	buf := getF64(n)
	for i := range buf {
		buf[i] = float64(i %% %[2]d)
	}
	return buf, func() { putF64(buf) }
}

func Scaled%[1]d(n int) float64 {
	buf, release := lend%[1]d(n)
	defer release()
	t := 0.0
	for _, v := range buf {
		t += v
	}
	return t
}

func Holders%[1]d(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k+%[2]d)
	}
	sort.Ints(out)
	return out
}

func fold%[1]d(m map[int]float64) float64 {
	t := 0.0
	for _, v := range m {
		if v > %[2]d {
			t += v
		} else {
			t -= v
		}
	}
	return t
}
`

// synthViolations are the injectable defects, one finding each, keyed
// by the analyzer that must report them.
var synthViolations = []struct {
	analyzer string
	code     string
}{
	{"lockguard", `
func (b *Box%[1]d) Bump() {
	b.bump()
}

func (b *Box%[1]d) bump() {
	b.n += %[2]d // want:lockguard
}
`},
	{"goroleak", `
func Leak%[1]d() {
	done := make(chan struct{})
	go func() { // want:goroleak
		<-done
	}()
}
`},
	{"detorder", `
func Unsorted%[1]d(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k+%[2]d) // want:detorder
	}
	return out
}
`},
	{"unlockpath", `
func (b *Box%[1]d) Early(flag bool) int {
	b.mu.Lock()
	if flag {
		return %[2]d // want:unlockpath
	}
	b.mu.Unlock()
	return 0
}
`},
}

// synthModule is a generated module on disk.
type synthModule struct {
	dir   string
	pkgs  []synthPkg
	want  []string // sorted "analyzer file:line" keys
	lines int
}

type synthPkg struct {
	Dir  string `json:"dir"`
	Path string `json:"path"`
}

// genSynth writes the module: cfg.lintPackages packages of
// cfg.lintGroups shape groups, with one violation of each kind per
// package.
func genSynth(cfg config, rng *rand.Rand) (*synthModule, error) {
	m := &synthModule{dir: filepath.Join(cfg.dir, "synth")}
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(m.dir, "go.mod"), []byte("module synth\n\ngo 1.22\n"), 0o644); err != nil {
		return nil, err
	}
	for p := 0; p < cfg.lintPackages; p++ {
		var b bytes.Buffer
		fmt.Fprintf(&b, synthHeader, p)
		// Each package holds one violation of every kind, in seeded
		// groups, so that every seed costs the analyzers the same.
		hosts := rng.Perm(cfg.lintGroups)
		for g := 0; g < cfg.lintGroups; g++ {
			k := 2 + rng.Intn(7)
			fmt.Fprintf(&b, synthClean, g, k)
			for v := range synthViolations {
				if hosts[v%len(hosts)] == g {
					fmt.Fprintf(&b, synthViolations[v].code, g, k)
				}
			}
		}
		src, err := format.Source(b.Bytes())
		if err != nil {
			return nil, fmt.Errorf("generated package does not parse: %w", err)
		}
		pkg := synthPkg{
			Dir:  filepath.Join(m.dir, "synth"+strconv.Itoa(p)),
			Path: synthScopes[p%len(synthScopes)] + "/synth" + strconv.Itoa(p),
		}
		if err := os.MkdirAll(pkg.Dir, 0o755); err != nil {
			return nil, err
		}
		file := filepath.Join(pkg.Dir, "synth.go")
		if err := os.WriteFile(file, src, 0o644); err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(src))
		for line := 1; sc.Scan(); line++ {
			if i := strings.Index(sc.Text(), "// want:"); i >= 0 {
				m.want = append(m.want, findingKey(sc.Text()[i+len("// want:"):], file, line))
			}
			m.lines++
		}
		m.pkgs = append(m.pkgs, pkg)
	}
	sort.Strings(m.want)
	return m, nil
}

func findingKey(analyzer, file string, line int) string {
	return analyzer + " " + file + ":" + strconv.Itoa(line)
}

// load type-checks every package of the module with a fresh loader.
func (m *synthModule) load() ([]*lint.Package, error) {
	return m.loadWith(lint.NewLoader(m.dir))
}

// loadWith type-checks every package of the module with l. Each call
// returns packages never seen before, so nothing scatterlint memoizes
// per package carries over to them.
func (m *synthModule) loadWith(l *lint.Loader) ([]*lint.Package, error) {
	pkgs := make([]*lint.Package, 0, len(m.pkgs))
	for _, p := range m.pkgs {
		pkg, err := l.LoadDir(p.Dir, p.Path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// lintFamilies are the four analyzer families BenchmarkLint times;
// together they are lint.All().
var lintFamilies = []struct {
	span      string // the metric is span + "_ms"
	analyzers []*lint.Analyzer
}{
	{"lint.legacy", []*lint.Analyzer{lint.MPIErrCheck, lint.CollectiveOrder, lint.SimClock, lint.CostInvariant, lint.MutexChan}},
	{"lint.dataflow", []*lint.Analyzer{lint.PoolAlias, lint.DetOrder, lint.LedgerOrder}},
	{"lint.ssa", []*lint.Analyzer{lint.CollectiveDeadlock, lint.GoroLeak, lint.BandCheck}},
	{"lint.lockset", []*lint.Analyzer{lint.LockGuard, lint.LockOrder, lint.UnlockPath}},
}

// analyze runs analyzers over every package and returns the sorted
// finding keys. With a tracer, each package gets a span.
func analyze(pkgs []*lint.Package, analyzers []*lint.Analyzer, tr *tracer, parent, req int64) ([]string, error) {
	var keys []string
	for _, pkg := range pkgs {
		var diags []lint.Diagnostic
		var err error
		run := func() { diags, err = lint.RunAnalyzers(pkg, analyzers) }
		if tr != nil {
			tr.timed("lint.package", parent, req, run)
		} else {
			run()
		}
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			keys = append(keys, findingKey(d.Analyzer, pos.Filename, pos.Line))
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// sameFindings demands exactly the injected findings.
func sameFindings(got, want []string) error {
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return nil
	}
	return fmt.Errorf("findings %q, want %q", got, want)
}

// scatterlint memoizes its dataflow summaries and lock-set analyses per
// type-checked package for the life of the process, so a package
// analyzed twice in one process is analyzed once. Every op therefore
// analyzes packages loaded just for it, in a worker process that this
// command starts with lintWorkerEnv naming its job file. A worker runs
// lintOpsPerWorker ops and exits: the memo keeps every package set it
// analyzed, so its heap grows by one set per op, and a fixed op count
// keeps both that growth and each op's GC load the same in every run.
const (
	lintWorkerEnv    = "PERFBENCH_LINT_WORKER"
	lintOpsPerWorker = 4
	// lintMemoRatio is how much faster than a worker's first analysis
	// a later one may run before the run fails as not measuring cold
	// analyses.
	lintMemoRatio = 0.5
)

// lintJob is one worker's assignment.
type lintJob struct {
	Module string     `json:"module"`
	Pkgs   []synthPkg `json:"pkgs"`
	Ops    int        `json:"ops"`
	Trace  bool       `json:"trace"`
}

// lintOp is one worker op: a fresh load of the module, then a full
// analysis of it.
type lintOp struct {
	LoadMs    float64  `json:"load_ms"`
	AnalyzeMs float64  `json:"analyze_ms"`
	Findings  []string `json:"findings"`
	// Families is the union of the findings of the four analyzer
	// families, each run on a load of its own (traced runs only).
	Families []string `json:"families,omitempty"`
}

// lintWorkerOut is what a worker prints when its ops are done.
type lintWorkerOut struct {
	Ops []lintOp `json:"ops"`
	// HeapMiB is the worker's live heap after its ops, with the loader
	// and everything scatterlint retained still reachable.
	HeapMiB float64 `json:"heap_mib"`
	Spans   []span  `json:"spans,omitempty"`
}

// lintWorkerMain is a worker process's whole life.
func lintWorkerMain(jobFile string, stdout, stderr io.Writer) int {
	if err := lintWorker(jobFile, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench lint worker: %v\n", err)
		return 1
	}
	return 0
}

func lintWorker(jobFile string, stdout io.Writer) error {
	buf, err := os.ReadFile(jobFile)
	if err != nil {
		return err
	}
	var job lintJob
	if err := json.Unmarshal(buf, &job); err != nil {
		return err
	}
	m := &synthModule{dir: job.Module, pkgs: job.Pkgs}
	l := lint.NewLoader(m.dir)
	// The first load fetches export data for the module's imports with
	// `go list -export`; the ops' loads reuse it. Its packages are never
	// analyzed.
	if _, err := m.loadWith(l); err != nil {
		return err
	}
	var tr *tracer
	if job.Trace {
		tr = newTracer()
	}
	var out lintWorkerOut
	for i := 0; i < job.Ops; i++ {
		req := int64(i + 1)
		start := time.Now()
		pkgs, err := m.loadWith(l)
		if err != nil {
			return err
		}
		loaded := time.Now()
		var opID int64
		if tr != nil {
			opID = tr.id()
		}
		keys, err := analyze(pkgs, lint.All(), tr, opID, req)
		if err != nil {
			return err
		}
		end := time.Now()
		if tr != nil {
			tr.add(opID, 0, "op", req, loaded, end)
		}
		op := lintOp{LoadMs: ms(loaded.Sub(start)), AnalyzeMs: ms(end.Sub(loaded)), Findings: keys}
		for _, fam := range lintFamilies {
			if tr == nil {
				break
			}
			fresh, err := m.loadWith(l)
			if err != nil {
				return err
			}
			var keys []string
			tr.timed(fam.span, 0, req, func() { keys, err = analyze(fresh, fam.analyzers, nil, 0, 0) })
			if err != nil {
				return err
			}
			op.Families = append(op.Families, keys...)
		}
		sort.Strings(op.Families)
		out.Ops = append(out.Ops, op)
	}
	out.HeapMiB = heapRetainedMiB()
	runtime.KeepAlive(l)
	if tr != nil {
		out.Spans = tr.all()
	}
	return json.NewEncoder(stdout).Encode(out)
}

// startLintWorker runs one worker to completion and returns its output.
func startLintWorker(jobFile string) (*lintWorkerOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), lintWorkerEnv+"="+jobFile)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint worker: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var out lintWorkerOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("lint worker output: %v", err)
	}
	return &out, nil
}

// lintPhase is one phase of lint-synthetic: its ops as a phase, the
// worker heaps, and each op's latency by its position in its worker.
type lintPhase struct {
	ph       phase
	heaps    []float64
	byPos    [][]float64
	findings int // reported by the last verified op
	errors   []string
}

// runLintPhase starts workers one after another until d of wall time
// has passed, at least one. Latency is the analysis; the phase's clock,
// over which throughput_ops_s takes its windows, runs only while ops
// load and analyze, leaving out process start and `go list`.
func runLintPhase(jobFile string, d time.Duration, want []string, corrupt *bool, tr *tracer) (lintPhase, error) {
	lp := lintPhase{byPos: make([][]float64, lintOpsPerWorker)}
	clock := 0.0
	fail := func(err error) {
		lp.ph.failed++
		if len(lp.errors) < 4 {
			lp.errors = append(lp.errors, err.Error())
		}
	}
	for start := time.Now(); len(lp.heaps) == 0 || time.Since(start) < d; {
		out, err := startLintWorker(jobFile)
		if err != nil {
			return lp, err
		}
		lp.heaps = append(lp.heaps, out.HeapMiB)
		if tr != nil {
			tr.merge(out.Spans)
		}
		for i, op := range out.Ops {
			lp.ph.lat = append(lp.ph.lat, op.AnalyzeMs)
			lp.byPos[i] = append(lp.byPos[i], op.AnalyzeMs)
			began := clock
			clock += (op.LoadMs + op.AnalyzeMs) / 1e3
			got := op.Findings
			if *corrupt && len(got) > 0 {
				*corrupt = false
				got = got[1:]
			}
			if err := sameFindings(got, want); err != nil {
				fail(err)
				continue
			}
			if tr != nil {
				if err := sameFindings(op.Families, want); err != nil {
					fail(fmt.Errorf("analyzer families: %w", err))
					continue
				}
			}
			lp.ph.ok++
			lp.ph.ran = append(lp.ph.ran, opSpan{began, clock})
			lp.findings = len(op.Findings)
		}
	}
	lp.ph.d = seconds(clock)
	lp.ph.wall = lp.ph.d
	return lp, nil
}

// runLintSynthetic times full scatterlint analyses of a generated
// module, each on a fresh load of it.
func runLintSynthetic(cfg config) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(cfg.seed))
	mod, err := genSynth(cfg, rng)
	if err != nil {
		return nil, err
	}
	res.inputs["packages"] = len(mod.pkgs)
	res.inputs["lines"] = mod.lines
	res.inputs["injected_findings"] = len(mod.want)
	res.inputs["ops_per_worker"] = lintOpsPerWorker

	setup, err := timeSetup(cfg.setupReps, func(bool) error {
		_, err := mod.load()
		return err
	})
	if err != nil {
		return nil, err
	}
	res.setup = setup
	res.layers["lint.load_ms"] = median(setup) * 1e3

	jobFile := func(trace bool) (string, error) {
		buf, err := json.Marshal(lintJob{Module: mod.dir, Pkgs: mod.pkgs, Ops: lintOpsPerWorker, Trace: trace})
		if err != nil {
			return "", err
		}
		path := filepath.Join(cfg.dir, fmt.Sprintf("lintjob-%v.json", trace))
		return path, os.WriteFile(path, buf, 0o644)
	}
	plain, err := jobFile(false)
	if err != nil {
		return nil, err
	}
	traced, err := jobFile(true)
	if err != nil {
		return nil, err
	}

	corrupt := cfg.corrupt
	warm, err := runLintPhase(plain, seconds(cfg.warmup), mod.want, &corrupt, nil)
	if err != nil {
		return nil, err
	}
	res.warmup = warm.ph
	res.errors = append(res.errors, warm.errors...)
	byPos := warm.byPos
	var heaps []float64
	findings := 0
	var workerErr error
	measure(cfg, res, func(tr *tracer, d time.Duration) (phase, []string) {
		job := plain
		if tr != nil {
			job = traced
		}
		lp, err := runLintPhase(job, d, mod.want, &corrupt, tr)
		if err != nil {
			workerErr = err
		}
		if tr == nil {
			heaps = lp.heaps
		}
		for i := range byPos {
			byPos[i] = append(byPos[i], lp.byPos[i]...)
		}
		findings = lp.findings
		return lp.ph, lp.errors
	})
	if workerErr != nil {
		return nil, workerErr
	}
	res.heapMiB = median(heaps)
	// A later op far faster than a worker's first would mean scatterlint
	// answered it from something the first op left behind.
	first, later := median(byPos[0]), median(slices.Concat(byPos[1:]...))
	res.check("every analysis is cold", later >= lintMemoRatio*first)
	res.inputs["first_op_ms"] = first
	res.inputs["later_op_ms"] = later
	if cfg.trace {
		st := summarize(res.spans)
		for _, fam := range lintFamilies {
			res.layers[fam.span+"_ms"] = p50(st, fam.span, time.Millisecond)
		}
		res.layers["lint.findings"] = float64(findings)
	}
	return res, nil
}
