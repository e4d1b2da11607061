// Command scatterbench regenerates the paper's tables and figures and
// the repository's committed BENCH_*.json documents.
//
// Usage:
//
//	scatterbench -exp all            # run every experiment
//	scatterbench -exp fig3           # one experiment
//	scatterbench -list               # list experiment IDs
//	scatterbench -exp all -md out.md # also write a Markdown summary
//	scatterbench -exp fig3 -svg figures
//	                                 # also write each figure as <ID>.svg
//	scatterbench -exp recovery -json BENCH_recovery.json
//	                                 # also write the document the
//	                                 # experiment publishes (recovery,
//	                                 # degraded, serve, solver)
//	scatterbench -exp solver -items 817101
//	                                 # the solver experiment at a given
//	                                 # scale
//	scatterbench -exp algocost -cpuprofile cpu.out -memprofile mem.out
//	                                 # profile any run with runtime/pprof
//
// Experiment IDs are printed by -list. Note that algocost times the
// exact dynamic program at the paper's full scale (817,101 items) and
// takes about a minute, and that the solver experiment at that scale
// runs the same DP several times.
package main

import (
	"encoding/json"
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
		jsonFile   = flag.String("json", "", "write the document the experiment publishes to this file (one experiment only)")
		items      = flag.Int("items", 0, "with -exp solver: scatter size (0 = 100,000; the paper's full scale is 817,101)")
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

	var reports []experiment.Report
	if *exp == "all" {
		if *jsonFile != "" {
			fmt.Fprintln(os.Stderr, "scatterbench: -json writes one experiment's document; name it with -exp")
			os.Exit(2)
		}
		reports = experiment.RunAll()
	} else {
		runner, ok := experiment.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "scatterbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		if *exp == "solver" {
			runner = func() (experiment.Report, error) {
				return experiment.Solver(experiment.SolverOptions{Items: *items})
			}
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

	if *jsonFile != "" {
		if reports[0].Doc == nil {
			fmt.Fprintf(os.Stderr, "scatterbench: experiment %q publishes no document\n", *exp)
			os.Exit(2)
		}
		buf, err := json.MarshalIndent(reports[0].Doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonFile, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "scatterbench: write %s: %v\n", *jsonFile, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonFile)
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
