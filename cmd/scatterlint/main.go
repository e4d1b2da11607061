// Scatterlint runs this repository's domain-invariant analyzers
// (internal/lint) over Go packages:
//
//	scatterlint [flags] [packages]  # defaults to ./...
//
// It loads the packages with their test files (like go vet), runs the
// whole suite once and prints the surviving findings as text on
// stderr, or on stdout as -json (a findings array) or -sarif (SARIF
// 2.1.0 for code-scanning upload). -ignoreaudit reports stale
// //scatterlint:ignore directives, ones that no longer suppress
// anything or that name an unknown analyzer, instead of findings.
//
// Findings covered by a //scatterlint:ignore <analyzer> <reason>
// directive are dropped. The exit code is 0 when clean, 1 when
// findings (or stale directives) remain.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scatterlint: ")

	var opt options
	flag.BoolVar(&opt.jsonOut, "json", false, "emit the findings as a JSON array on stdout")
	flag.BoolVar(&opt.sarifOut, "sarif", false, "emit SARIF 2.1.0 on stdout")
	flag.BoolVar(&opt.ignoreAudit, "ignoreaudit", false, "report stale scatterlint:ignore directives instead of findings")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `scatterlint enforces the simulator's MPI and cost-model invariants.

Usage:
  scatterlint [flags] [packages]  # defaults to ./...
  scatterlint help                # list analyzers

Flags:
`)
		flag.PrintDefaults()
		os.Exit(2)
	}
	flag.Parse()

	args := flag.Args()
	if len(args) == 1 && args[0] == "help" {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	code, err := standalone(os.Stdout, os.Stderr, args, opt)
	if err != nil {
		log.Fatal(err)
	}
	os.Exit(code)
}

type options struct {
	jsonOut     bool
	sarifOut    bool
	ignoreAudit bool
}

// standalone loads the requested packages (./... by default), test
// files included, and runs the suite. It returns the exit code: 0
// means clean, 1 means findings (or stale directives under
// -ignoreaudit).
func standalone(stdout, stderr io.Writer, patterns []string, opt options) (int, error) {
	loader := lint.NewLoader(".")
	loader.IncludeTests = true
	findings, audits, err := lint.Run(loader, lint.All(), patterns...)
	if err != nil {
		return 0, err
	}

	if opt.ignoreAudit {
		stale := 0
		for _, a := range audits {
			switch {
			case len(a.Unknown) > 0:
				fmt.Fprintf(stderr, "%s:%d:%d: directive names unknown analyzer(s) %s: fix the name or delete the directive\n",
					a.File, a.Line, a.Col, strings.Join(a.Unknown, ", "))
			case !a.Used:
				fmt.Fprintf(stderr, "%s:%d:%d: stale scatterlint:ignore [%s] (%q): it suppresses nothing; delete it\n",
					a.File, a.Line, a.Col, strings.Join(a.Analyzers, ","), a.Reason)
			default:
				continue
			}
			stale++
		}
		if stale > 0 {
			return 1, nil
		}
		fmt.Fprintln(stderr, "scatterlint: all ignore directives suppress at least one finding")
		return 0, nil
	}

	switch {
	case opt.sarifOut:
		err = lint.WriteSARIF(stdout, lint.All(), findings)
	case opt.jsonOut:
		err = lint.WriteJSON(stdout, findings)
	default:
		for _, f := range findings {
			fmt.Fprintf(stderr, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if err != nil {
		return 0, err
	}
	if len(findings) > 0 {
		return 1, nil
	}
	return 0, nil
}
