// Benchmarks regenerating the paper's tables and figures; see
// DESIGN.md for the experiment index. Each paper artifact has one
// Benchmark function; the full-scale regeneration (817,101 items) is
// the job of cmd/scatterbench, while the benchmarks here use sizes
// that keep `go test -bench=.` minutes-scale and report the scaling
// behaviour the paper claims.
package scatter

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/masterslave"
	"repro/internal/monitor"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/seismic"
	"repro/internal/simgrid"
	"repro/internal/transform"
)

func table1Procs(b *testing.B) []core.Processor {
	b.Helper()
	procs, err := platform.Table1().ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		b.Fatal(err)
	}
	return procs
}

// BenchmarkTable1Calibration regenerates Table 1's calibration: the
// per-ray cost of the real ray-tracing kernel.
func BenchmarkTable1Calibration(b *testing.B) {
	tracer, err := seismic.NewTracer(seismic.IASP91Lite(), 200)
	if err != nil {
		b.Fatal(err)
	}
	events := seismic.SyntheticCatalog(seismic.CatalogConfig{Seed: 1, Events: 1000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracer.TraceAll(events)
	}
	b.ReportMetric(float64(len(events)), "rays/op")
}

// benchFigure simulates one of the paper's figure runs at full scale
// (817,101 rays) with the given ordering and solver.
func benchFigure(b *testing.B, ordering platform.Ordering, solve core.Solver) {
	procs, err := platform.Table1().ProcessorsOrdered(ordering)
	if err != nil {
		b.Fatal(err)
	}
	res, err := solve(procs, platform.Table1Rays)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var makespan float64
	for i := 0; i < b.N; i++ {
		tl, err := simgrid.Run(simgrid.Config{Procs: procs, Dist: res.Distribution})
		if err != nil {
			b.Fatal(err)
		}
		makespan = tl.Makespan
	}
	b.ReportMetric(makespan, "virtual_s")
}

// BenchmarkFig2Uniform regenerates Figure 2 (uniform distribution).
func BenchmarkFig2Uniform(b *testing.B) {
	benchFigure(b, platform.OrderDescendingBandwidth,
		func(procs []core.Processor, n int) (core.Result, error) {
			dist := core.Uniform(len(procs), n)
			return core.Result{Distribution: dist, Makespan: core.Makespan(procs, dist)}, nil
		})
}

// BenchmarkFig3Balanced regenerates Figure 3 (balanced, descending
// bandwidth).
func BenchmarkFig3Balanced(b *testing.B) {
	benchFigure(b, platform.OrderDescendingBandwidth, core.Heuristic)
}

// BenchmarkFig4Ascending regenerates Figure 4 (balanced, ascending
// bandwidth).
func BenchmarkFig4Ascending(b *testing.B) {
	benchFigure(b, platform.OrderAscendingBandwidth, core.Heuristic)
}

// BenchmarkAlgorithm1 measures the basic exact DP across n (the
// Section 5.2 cost anecdote: quadratic in n, "more than two days" at
// full scale).
func BenchmarkAlgorithm1(b *testing.B) {
	procs := table1Procs(b)
	for _, n := range []int{500, 1000, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Algorithm1(procs, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgorithm2 measures the optimized exact DP across n
// ("6 minutes" at full scale in the paper; minutes-scale here too, so
// the sweep stops at 100k — the experiment driver runs full scale).
func BenchmarkAlgorithm2(b *testing.B) {
	procs := table1Procs(b)
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Algorithm2(procs, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeuristic measures the guaranteed LP heuristic at the
// paper's full scale ("instantaneous").
func BenchmarkHeuristic(b *testing.B) {
	procs := table1Procs(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.Heuristic(procs, platform.Table1Rays); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedFormLinear measures the Theorem 1-2 closed-form
// solver at full scale.
func BenchmarkClosedFormLinear(b *testing.B) {
	procs := table1Procs(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveLinear(procs, platform.Table1Rays); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderingPolicies measures the balanced makespan under the
// three orderings (Theorem 3 validation, Figures 3 vs 4).
func BenchmarkOrderingPolicies(b *testing.B) {
	for _, o := range []platform.Ordering{
		platform.OrderDescendingBandwidth,
		platform.OrderAsListed,
		platform.OrderAscendingBandwidth,
	} {
		b.Run(o.String(), func(b *testing.B) {
			procs, err := platform.Table1().ProcessorsOrdered(o)
			if err != nil {
				b.Fatal(err)
			}
			var makespan float64
			for i := 0; i < b.N; i++ {
				res, err := core.Heuristic(procs, platform.Table1Rays)
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan
			}
			b.ReportMetric(makespan, "virtual_s")
		})
	}
}

// BenchmarkRootChoice measures the Section 3.4 root sweep.
func BenchmarkRootChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RootChoice(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPIScatterv measures the virtual-time runtime executing the
// paper's program (scatter + compute) on the Table 1 grid.
func BenchmarkMPIScatterv(b *testing.B) {
	procs := table1Procs(b)
	res, err := core.Heuristic(procs, platform.Table1Rays)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]int32, platform.Table1Rays)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world, err := mpi.NewWorld(procs, len(procs)-1)
		if err != nil {
			b.Fatal(err)
		}
		_, err = mpi.Run(world, func(c *mpi.Comm) error {
			var in []int32
			if c.IsRoot() {
				in = data
			}
			buf, err := mpi.Scatterv(c, in, []int(res.Distribution))
			if err != nil {
				return err
			}
			c.ChargeItems(len(buf))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures the discrete-event simulator on a
// full-scale figure run with perturbations enabled.
func BenchmarkSimulator(b *testing.B) {
	procs := table1Procs(b)
	res, err := core.Heuristic(procs, platform.Table1Rays)
	if err != nil {
		b.Fatal(err)
	}
	cfg := simgrid.Config{
		Procs: procs,
		Dist:  res.Distribution,
		CPULoad: map[string][]simgrid.RateWindow{
			"sekhmet": {{Start: 100, End: 300, Factor: 0.6}},
		},
		Noise: &simgrid.Noise{Seed: 1, CommStdDev: 0.05, CompStdDev: 0.05},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simgrid.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRayTrace measures the real compute kernel (per-ray cost,
// the quantity Table 1 calibrates).
func BenchmarkRayTrace(b *testing.B) {
	for _, res := range []float64{0, 200, 50} {
		b.Run(fmt.Sprintf("resolutionKm=%.0f", res), func(b *testing.B) {
			tracer, err := seismic.NewTracer(seismic.IASP91Lite(), res)
			if err != nil {
				b.Fatal(err)
			}
			events := seismic.SyntheticCatalog(seismic.CatalogConfig{Seed: 2, Events: 256})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tracer.Trace(events[i%len(events)])
			}
		})
	}
}

// BenchmarkMultiRound measures the multi-installment LP solve at
// several round counts (DESIGN.md E13).
func BenchmarkMultiRound(b *testing.B) {
	procs := table1Procs(b)
	for _, rounds := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MultiRound(procs, 50000, rounds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMasterSlave measures the dynamic baseline scheduler across
// chunk sizes (DESIGN.md E11).
func BenchmarkMasterSlave(b *testing.B) {
	procs := table1Procs(b)
	for _, chunk := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := masterslave.Run(masterslave.Config{
					Procs:           procs,
					Items:           platform.Table1Rays,
					ChunkSize:       chunk,
					RequestOverhead: 0.01,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonitorForecast measures the NWS-style adaptive forecaster.
func BenchmarkMonitorForecast(b *testing.B) {
	m := monitor.New(256, nil)
	for i := 0; i < 256; i++ {
		m.Observe(monitor.CPUResource("x"), float64(i), 0.5+0.1*float64(i%7))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Forecast(monitor.CPUResource("x")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransform measures the Scatter -> Scatterv source rewriter.
func BenchmarkTransform(b *testing.B) {
	src := []byte(`package main

import "repro/internal/mpi"

func run(c *mpi.Comm, data []float64, n int) error {
	buf, err := mpi.Scatter(c, data, n/c.Size())
	if err != nil {
		return err
	}
	c.ChargeItems(len(buf))
	return nil
}
`)
	for i := 0; i < b.N; i++ {
		res, err := transform.Rewrite("bench.go", src)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rewrites != 1 {
			b.Fatal("no rewrite")
		}
	}
}

// BenchmarkLPFloatVsExact compares the two simplex implementations on
// the single-round scatter LP (17 variables).
func BenchmarkLPFloatVsExact(b *testing.B) {
	procs := table1Procs(b)
	aps, err := core.ExtractAffine(procs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.HeuristicRational(aps, platform.Table1Rays); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("float-multiround1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MultiRound(procs, platform.Table1Rays, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
