// Command flbench regenerates the paper's evaluation (§7): every table and
// figure has a named experiment that assembles the corresponding cluster
// configuration on the simulated network, runs the measured window, and
// prints rows in the same shape the paper plots.
//
//	flbench -exp fig7            # quick profile of Fig 7's sweep
//	flbench -exp fig16 -full     # paper-scale FLO vs HotStuff comparison
//	flbench -exp all             # the whole evaluation, in paper order
//	flbench -list                # what's available
//
// The quick profile compresses sweeps and measurement windows so the full
// set finishes in minutes; -full approximates the paper's Table 2
// parameters (expect a long run). Everything here runs in one process on
// the simulated network, so absolute numbers depend on the host — the
// *shapes* (who wins, how metrics scale with n, ω, β, σ) are the
// reproduction targets. End-to-end numbers for this implementation (client
// Submit over TCP to COMMIT receipt, separate node processes) come from
// `go run ./benchmark`, not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		exp  = flag.String("exp", "", "experiment to run: table1, fig5..fig17, ext-*, or all")
		full = flag.Bool("full", false, "paper-scale parameters instead of the quick profile")
		list = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	if *list || *exp == "" {
		names := make([]string, 0, len(harness.Experiments))
		for name := range harness.Experiments {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("available experiments (run with -exp <name>):")
		for _, name := range names {
			fmt.Println("  ", name)
		}
		fmt.Println("   all")
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	scale := harness.Quick
	if *full {
		scale = harness.Full
	}

	run := func(name string) {
		fn, ok := harness.Experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", name)
			os.Exit(2)
		}
		start := time.Now()
		fn(os.Stdout, scale)
		fmt.Printf("# %s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, name := range harness.ExperimentOrder {
			run(name)
		}
		return
	}
	run(*exp)
}
