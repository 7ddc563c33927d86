// MoE example: the mixture-of-experts scenario from the paper's
// evaluation. TAPAS must discover expert-level parallelism (all-to-all
// token routing into sharded experts) without being told the model is an
// MoE, and on clusters with more devices than experts it can nest tensor
// parallelism inside the expert split. Each search streams live progress
// while it runs.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"tapas"
)

func main() {
	fmt.Println("== GShard-MoE strategy derivation ==")

	// Watch the pipeline work: per-class progress lands on stderr as
	// each search runs.
	ctx := context.Background()
	eng := tapas.NewEngine()
	progress := func(ev tapas.ProgressEvent) {
		if ev.Kind == tapas.PhaseProgress {
			fmt.Fprintf(os.Stderr, "  [%s %d GPUs] %d/%d classes, %d strategies examined\n",
				ev.Model, ev.GPUs, ev.ClassesDone, ev.ClassesTotal, ev.Examined)
		}
	}

	for _, gpus := range []int{8, 32} {
		res, err := eng.SearchSpec(ctx, tapas.SearchSpec{Model: "moe-1.3B", GPUs: gpus, Progress: progress}) // 16 experts
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%d GPUs (experts=16):\n", gpus)
		fmt.Printf("  plan: %s\n", res.Strategy.Describe())
		fmt.Printf("  perf: %s\n", res.Report)
	}

	// Compare with the expert-engineered plans on one node.
	fmt.Println("\nbaselines on 8 GPUs:")
	for _, b := range []string{"gshard", "dp", "deepspeed"} {
		r, err := eng.Baseline(ctx, b, "moe-1.3B", 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %s\n", b, r.Report)
	}
}
