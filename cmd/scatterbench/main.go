// Command scatterbench regenerates the paper's tables and figures.
//
// Usage:
//
//	scatterbench -exp all            # run every experiment
//	scatterbench -exp fig3           # one experiment
//	scatterbench -list               # list experiment IDs
//	scatterbench -exp all -md out.md # also write a Markdown summary
//	scatterbench -recovery BENCH_recovery.json
//	                                 # recovery benchmark only: write the
//	                                 # failover-overhead JSON and exit
//	scatterbench -solver BENCH_solver.json
//	                                 # solver benchmark only: write the
//	                                 # incremental-engine JSON (scaling
//	                                 # curve + certified solve) and
//	                                 # exit; -workers and -items narrow
//	                                 # the run
//	scatterbench -degraded BENCH_degraded.json
//	                                 # degraded-network benchmark only:
//	                                 # write the exact-vs-diffusion JSON
//	                                 # and exit
//	scatterbench -exp algocost -cpuprofile cpu.out -memprofile mem.out
//	                                 # profile any run with runtime/pprof
//
// Experiment IDs: table1, fig1, fig2, fig3, fig4, algocost, quality,
// ordering, bound, root, solver. Note that algocost times the exact
// dynamic program at the paper's full scale (817,101 items) and takes
// about a minute, and that -solver runs the same DP several times at
// that scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiment"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment ID to run, or 'all'")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		md         = flag.String("md", "", "also write a Markdown summary to this file")
		svgDir     = flag.String("svg", "", "write figure SVGs into this directory")
		recovery   = flag.String("recovery", "", "run only the recovery benchmark and write its JSON to this file")
		solver     = flag.String("solver", "", "run only the solver benchmark and write its JSON to this file")
		workers    = flag.Int("workers", 0, "with -solver: fix the scaling curve to this pool size (0 = sweep 1,2,4,8,GOMAXPROCS)")
		items      = flag.Int("items", 0, "with -solver: scatter size (0 = the paper's 817,101)")
		serveBench = flag.String("serve", "", "run only the daemon load benchmark and write its JSON to this file")
		degraded   = flag.String("degraded", "", "run only the degraded-network benchmark and write its JSON to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "scatterbench: cpuprofile: %v\n", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scatterbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "scatterbench: memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, id := range experiment.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *recovery != "" {
		buf, err := experiment.RecoveryJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: recovery: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*recovery, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: write %s: %v\n", *recovery, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *recovery)
		return
	}

	if *degraded != "" {
		buf, err := experiment.DegradedJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: degraded: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*degraded, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: write %s: %v\n", *degraded, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *degraded)
		return
	}

	if *serveBench != "" {
		buf, err := experiment.ServeJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: serve: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*serveBench, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: write %s: %v\n", *serveBench, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *serveBench)
		return
	}

	if *solver != "" {
		buf, err := experiment.SolverJSON(experiment.SolverOptions{Items: *items, Workers: *workers})
		if err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: solver: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*solver, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: write %s: %v\n", *solver, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *solver)
		return
	}

	var reports []experiment.Report
	if *exp == "all" {
		reports = experiment.RunAll()
	} else {
		runner, ok := experiment.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "scatterbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		rep, err := runner()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: %s: %v\n", *exp, err)
			os.Exit(1)
		}
		reports = []experiment.Report{rep}
	}

	for _, rep := range reports {
		fmt.Println(rep.String())
	}

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: %v\n", err)
			os.Exit(1)
		}
		for _, rep := range reports {
			if rep.SVG == "" {
				continue
			}
			path := filepath.Join(*svgDir, rep.ID+".svg")
			if err := os.WriteFile(path, []byte(rep.SVG), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "scatterbench: write %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	if *md != "" {
		if err := os.WriteFile(*md, []byte(experiment.Markdown(reports)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: write %s: %v\n", *md, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *md)
	}
}
