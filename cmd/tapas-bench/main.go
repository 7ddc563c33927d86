// Command tapas-bench regenerates the paper's tables and figures on the
// simulated substrate. Ctrl-C cancels the run; -timeout bounds it.
// (Speed is measured by the repository's benchmark, bench/ — see
// bench/README.md.)
//
// Usage:
//
//	tapas-bench -exp all          # every experiment, full fidelity
//	tapas-bench -exp fig6 -quick  # one experiment, trimmed sweeps
//	tapas-bench -timeout 10m -exp all
//	tapas-bench -list             # enumerate experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tapas/internal/cli"
	"tapas/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1, tab1, fig5, fig6, fig7, fig8, fig9, fig10, tab2) or 'all'")
	quick := flag.Bool("quick", false, "trim sweeps and budgets for a fast run")
	workers := flag.Int("workers", 0, "strategy-search worker goroutines (0 = GOMAXPROCS, 1 = serial; results are identical except fig8's time-budgeted ES column)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, g := range experiments.All() {
			fmt.Printf("%-8s %s\n", g.ID, g.Title)
		}
		return
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()

	gens := experiments.All()
	if *exp != "all" {
		g, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		gens = []experiments.Generator{g}
	}
	cfg := experiments.Config{Quick: *quick, Workers: *workers}
	for _, g := range gens {
		fmt.Printf("==== %s ====\n", g.Title)
		start := time.Now()
		if err := g.Run(ctx, os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", g.ID, err)
			os.Exit(cli.ExitCode(err))
		}
		fmt.Printf("(generated in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
}
