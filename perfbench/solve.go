package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	scatter "repro"
	"repro/internal/core"
	"repro/internal/platform"
)

// table1Rays is the paper's input size (817,101 rays).
const table1Rays = platform.Table1Rays

// table1Optimum is the exact optimal makespan of the Table 1 platform
// (descending bandwidth, root last) at 817,101 items, from a 55 s
// Algorithm 2 solve. The coarse-refine answer must lie within its
// reported band of it.
const table1Optimum = 0x1.93f9a8a5a6176p+08

// cascadeCrashes are the positions, in the current survivor list, of
// the three processors the cascade crashes in turn: a merlin CPU, then
// a seven CPU, then pellinore. Fixed, so every seed resolves the same
// number of rows.
var cascadeCrashes = []int{13, 3, 1}

// solveJob is one Table 1 job's inputs and oracle answers, computed
// with Algorithm 2 before anything is timed.
type solveJob struct {
	procs     []core.Processor
	n         int
	want      core.Result
	survivors [][]core.Processor
	remaining []int
	cascade   []core.Result
	coarseN   int
	optimum   float64
}

func buildSolveJob(cfg config, rng *rand.Rand, res *result) (*solveJob, error) {
	procs, err := platform.Table1().ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		return nil, err
	}
	j := &solveJob{procs: procs, n: cfg.solveItems + rng.Intn(cfg.solveItems/50+1) - cfg.solveItems/100, coarseN: cfg.coarseItems}
	if j.want, err = core.Algorithm2(procs, j.n); err != nil {
		return nil, err
	}
	surv, rem := procs, j.n
	for _, pos := range cascadeCrashes {
		next := append(append([]core.Processor(nil), surv[:pos]...), surv[pos+1:]...)
		surv, rem = next, int(float64(rem)*(0.80+0.05*rng.Float64()))
		want, err := core.Algorithm2(surv, rem)
		if err != nil {
			return nil, err
		}
		j.survivors = append(j.survivors, surv)
		j.remaining = append(j.remaining, rem)
		j.cascade = append(j.cascade, want)
	}
	j.optimum = table1Optimum
	if j.coarseN != table1Rays {
		exact, err := core.Algorithm2(procs, j.coarseN)
		if err != nil {
			return nil, err
		}
		j.optimum = exact.Makespan
	}
	res.inputs["items"] = j.n
	res.inputs["cascade_remaining"] = j.remaining
	res.inputs["coarse_items"] = j.coarseN
	return j, nil
}

// runSolveTable1 times whole Table 1 jobs on one caller: Algorithm 2
// through the library, a cold engine solve, a three-crash cascade of
// warm resolves through that engine, and a coarse-refine solve at the
// paper's full size.
func runSolveTable1(cfg config) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(cfg.seed))
	job, err := buildSolveJob(cfg, rng, res)
	if err != nil {
		return nil, err
	}
	coarseCfg := core.EngineConfig{Policy: core.PolicyCoarseRefine, CoarseMinItems: job.coarseN}

	// Set-up is what a caller pays before its first solve: parse the
	// platform, order its processors, build the two engines. It is
	// microseconds, so each sample times a batch of setupBatch.
	const setupBatch = 500
	data, err := platform.Table1().MarshalJSON()
	if err != nil {
		return nil, err
	}
	var live []*core.Engine
	setup, err := timeSetup(cfg.setupReps, func(bool) error {
		for i := 0; i < setupBatch; i++ {
			p, err := scatter.LoadPlatform(data)
			if err != nil {
				return err
			}
			if _, err := scatter.PlatformProcessors(p); err != nil {
				return err
			}
			live = []*core.Engine{core.NewEngine(0), core.NewEngineConfig(coarseCfg)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range setup {
		setup[i] /= setupBatch
	}
	res.setup = setup
	chk := newChecker(cfg)

	var band, lower float64
	var req int64
	// op runs one job on fresh engines; the last job's stay live for
	// the heap reading.
	op := func(tr *tracer) (time.Duration, error) {
		req++
		e, ce := core.NewEngine(0), core.NewEngineConfig(coarseCfg)
		live = []*core.Engine{e, ce}
		var opID int64
		step := func(name string, f func() error) error {
			if tr == nil {
				return f()
			}
			var err error
			tr.timed(name, opID, req, func() { err = f() })
			return err
		}
		if tr != nil {
			opID = tr.id()
		}
		start := time.Now()
		err := step("core.algorithm2", func() error {
			r, err := scatter.BalanceDP(job.procs, job.n)
			if err != nil {
				return err
			}
			return chk.result(r, job.want)
		})
		if err == nil {
			err = step("core.engine_cold", func() error {
				r, info, err := e.SolveDetailed(job.procs, job.n)
				if err == nil && info.Source != core.SourceCold {
					err = fmt.Errorf("engine answered from %v, want a cold solve", info.Source)
				}
				if err != nil {
					return err
				}
				return sameResult(r, job.want)
			})
		}
		for k := 0; err == nil && k < len(job.survivors); k++ {
			err = step("core.resolve", func() error {
				r, info, err := e.SolveDetailed(job.survivors[k], job.remaining[k])
				if err == nil && info.Source != core.SourceResolve {
					err = fmt.Errorf("crash %d answered from %v, want a warm resolve", k+1, info.Source)
				}
				if err != nil {
					return err
				}
				return sameResult(r, job.cascade[k])
			})
		}
		if err == nil {
			err = step("core.coarse_refine", func() error {
				r, info, err := ce.SolveDetailed(job.procs, job.coarseN)
				if err == nil && info.Source != core.SourceCoarse {
					err = fmt.Errorf("coarse engine answered from %v", info.Source)
				}
				if err != nil {
					return err
				}
				band, lower = info.Bound, info.LowerBound
				if gap := r.Makespan - job.optimum; gap < 0 || gap > info.Bound || info.LowerBound > job.optimum {
					return fmt.Errorf("coarse makespan %v, band %v, lower bound %v against optimum %v", r.Makespan, info.Bound, info.LowerBound, job.optimum)
				}
				return nil
			})
		}
		took := time.Since(start)
		if tr != nil {
			tr.add(opID, 0, "op", req, start, start.Add(took))
			if err == nil {
				err = probePlan(tr, req, job)
			}
		}
		return took, err
	}

	ph, errs := closedLoop(1, seconds(cfg.warmup), func(int) (time.Duration, error) { return op(nil) })
	res.warmup = ph
	res.errors = append(res.errors, errs...)
	measure(cfg, res, func(tr *tracer, d time.Duration) (phase, []string) {
		return closedLoop(1, d, func(int) (time.Duration, error) { return op(tr) })
	})
	runtime.KeepAlive(live)
	if cfg.trace {
		st := summarize(res.spans)
		res.layers["core.algorithm2_ms"] = p50(st, "core.algorithm2", time.Millisecond)
		cold := p50(st, "core.engine_cold", time.Millisecond)
		res.layers["core.engine_cold_ms"] = cold
		res.layers["core.plan_build_ms"] = p50(st, "core.plan_build", time.Millisecond)
		res.layers["core.resolve_ms"] = p50(st, "core.resolve", time.Millisecond)
		res.layers["core.lookup_us"] = p50(st, "core.lookup", time.Microsecond)
		res.layers["core.coarse_refine_ms"] = p50(st, "core.coarse_refine", time.Millisecond)
		res.layers["core.cells_per_us"] = float64(len(job.procs)) * float64(job.n+1) / (cold * 1e3)
		res.layers["core.coarse_band_rel"] = band / lower
	}
	return res, nil
}

// probePlan times core.SolvePlan and Plan.Lookup on the job's
// platform. These are traced-run probes, outside the op.
func probePlan(tr *tracer, req int64, job *solveJob) error {
	var pl *core.Plan
	var err error
	tr.timed("core.plan_build", 0, req, func() { pl, err = core.SolvePlan(job.procs, job.n) })
	if err != nil {
		return err
	}
	for _, d := range []int{job.n, job.n / 2, job.n / 3, job.n / 5} {
		var r core.Result
		tr.timed("core.lookup", 0, req, func() { r, err = pl.Lookup(d, 0) })
		if err != nil {
			return err
		}
		if d == job.n {
			if err := sameResult(r, job.want); err != nil {
				return err
			}
		}
	}
	return nil
}
