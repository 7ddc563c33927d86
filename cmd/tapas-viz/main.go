// Command tapas-viz renders the sharding strategies of a model's repeated
// layer the way the paper's Figure 9 draws them, plus the full
// per-GraphNode SRC expressions of a selected plan. Ctrl-C cancels the
// underlying searches; -timeout bounds them.
//
// Usage:
//
//	tapas-viz                       # Figure-9 style comparison on T5
//	tapas-viz -model moe-380M -plan gshard -src
package main

import (
	"flag"
	"fmt"
	"os"

	"tapas"
	"tapas/internal/cli"
	"tapas/internal/experiments"
)

func main() {
	model := flag.String("model", "t5-100M", "model to visualize")
	plan := flag.String("plan", "", "show one plan's full assignment (tapas, dp, megatron, ffn-only, mha-only, gshard)")
	src := flag.Bool("src", false, "print SRC expressions per GraphNode")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = no limit)")
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	if *plan == "" {
		g, ok := experiments.Find("fig9")
		if !ok {
			fmt.Fprintln(os.Stderr, "figure 9 generator missing")
			os.Exit(1)
		}
		if err := g.Run(ctx, os.Stdout, experiments.Config{}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(cli.ExitCode(err))
		}
		return
	}

	eng := tapas.NewEngine()
	var (
		res *tapas.Result
		err error
	)
	if *plan == "tapas" {
		res, err = eng.Search(ctx, *model, 8)
	} else {
		res, err = eng.Baseline(ctx, *plan, *model, 8)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cli.ExitCode(err))
	}
	fmt.Printf("%s on 8 GPUs — %s\n", *model, res.Strategy.Describe())
	if *src {
		for _, gn := range res.Strategy.Graph.TopoOrder() {
			p := res.Strategy.Assign[gn.ID]
			if p.SRC == "" {
				continue
			}
			fmt.Printf("%-40s %s\n", gn.String(), p.SRC)
		}
	}
}
