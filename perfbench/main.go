// Command perfbench is the repository's benchmark. It drives scatterd's
// serving stack (serve over store and core.Engine), the solvers and
// scatterlint only through their public APIs, on inputs generated from
// a seed, checks every answer, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from spans the
// benchmark records around each call into a layer. README.md in this
// directory documents the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// DefaultSeed is the seed every tuning run used. HeldOutSeed is kept
// for confirming a later claim on inputs it was not tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 20031
)

func main() {
	if job := os.Getenv(lintWorkerEnv); job != "" {
		os.Exit(lintWorkerMain(job, os.Stdout, os.Stderr))
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", DefaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	work := fs.String("work", ".bench_build", "directory for scratch files and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := defaultConfig(*name, *seed, *seconds)
	cfg.trace = *trace == 1
	cfg.work = *work
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// run executes one benchmark run. A traced run also runs every other
// workload at companion size, so that it reports every per-layer
// metric; a metric whose home is another workload comes from that
// companion run.
func run(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep := newReport(cfg, res)
	if !cfg.trace {
		return rep, nil
	}
	if err := writeTrace(cfg, res.spans); err != nil {
		return nil, err
	}
	for _, other := range workloadOrder {
		if other == cfg.workload {
			continue
		}
		ccfg := companionConfig(other, cfg.seed)
		ccfg.work, ccfg.dir = cfg.work, dir
		cres, err := workloads[other](ccfg)
		if err != nil {
			return nil, fmt.Errorf("%s companion: %w", other, err)
		}
		rep.addCompanion(other, cres)
	}
	return rep, rep.completeLayers()
}

// report is what one run prints: an information line recording host,
// inputs and sample counts, then the result line.
type report struct {
	cfg       config
	res       *result
	attempted int
	failed    int
	layers    map[string]float64
	// companions records, per companion workload, its op and failure
	// counts; their failures count against the run.
	companions map[string][2]int
}

func newReport(cfg config, res *result) *report {
	r := &report{cfg: cfg, res: res, layers: map[string]float64{}, companions: map[string][2]int{}}
	r.attempted, r.failed = res.counts()
	for name, v := range res.layers {
		r.layers[name] = v
	}
	return r
}

func (r *report) addCompanion(name string, res *result) {
	attempted, failed := res.counts()
	r.attempted += attempted
	r.failed += failed
	r.companions[name] = [2]int{attempted, failed}
	for _, e := range res.errors {
		r.res.errors = append(r.res.errors, name+": "+e)
	}
	for _, m := range perLayer {
		if _, have := r.layers[m.name]; !have && m.home(name) {
			r.layers[m.name] = res.layers[m.name]
		}
	}
}

// completeLayers adds the run-wide per-layer metrics and checks that
// every declared metric has a value.
func (r *report) completeLayers() error {
	r.layers["error_rate"] = r.errorRate()
	for _, m := range perLayer {
		if _, ok := r.layers[m.name]; !ok {
			return fmt.Errorf("traced run did not measure %s", m.name)
		}
	}
	return nil
}

func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) write(w io.Writer) error {
	res := r.res
	info := map[string]any{
		"workload":     r.cfg.workload,
		"seed":         r.cfg.seed,
		"default_seed": int64(DefaultSeed),
		"held_out":     int64(HeldOutSeed),
		"trace":        r.cfg.trace,
		"seconds":      r.cfg.seconds,
		"host":         hostInfo(),
		"inputs":       res.inputs,
		"ops": map[string]any{
			"warmup":        len(res.warmup.lat),
			"measured":      len(res.measured.lat),
			"failed":        res.measured.failed,
			"traced":        len(res.traced.lat),
			"checks":        len(res.checks),
			"failed_checks": res.failedChecks(),
		},
		// The sample count behind each end-to-end metric.
		"samples": map[string]int{
			"throughput_ops_s": throughputWindows,
			"latency_p50_ms":   len(res.measured.lat),
			"latency_p90_ms":   len(res.measured.lat),
			"setup_s":          len(res.setup),
			"heap_retained_mb": 1,
		},
		"ops_over_wall_s": float64(res.measured.ok) / res.measured.wall.Seconds(),
		"error_rate":      r.errorRate(),
	}
	if len(r.companions) > 0 {
		info["companions"] = r.companions
	}
	if len(res.errors) > 0 {
		info["errors"] = res.errors
	}
	metrics := map[string]metricValue{}
	if r.cfg.trace {
		for _, m := range perLayer {
			metrics[m.name] = metricValue{r.layers[m.name], m.unit}
		}
	} else {
		for name, v := range res.endToEnd() {
			metrics[name] = metricValue{v, endToEndUnits[name]}
		}
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics}
	for _, v := range []any{map[string]any{"info": info}, line} {
		buf, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", buf); err != nil {
			return err
		}
	}
	return nil
}

// maxWrittenSpans bounds the spans a trace file lists; the summary
// covers them all. A serve-hot traced run records about a million.
const maxWrittenSpans = 100_000

// writeTrace writes the traced run's per-name duration and self-time
// summary and its first spans to <work>/traces.
func writeTrace(cfg config, spans []span) error {
	dir := filepath.Join(cfg.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Summary  map[string]spanStats `json:"summary"`
		Recorded int                  `json:"recorded"`
		Spans    []span               `json:"spans"`
	}{cfg.workload, cfg.seed, summarize(spans), len(spans), spans[:min(len(spans), maxWrittenSpans)]}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, cfg.workload+"-seed"+strconv.FormatInt(cfg.seed, 10)+".json")
	return os.WriteFile(path, buf, 0o644)
}

func hostInfo() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func workloadNames() string {
	names := append([]string(nil), workloadOrder...)
	sort.Strings(names)
	return strings.Join(names, ", ")
}
