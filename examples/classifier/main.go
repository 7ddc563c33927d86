// Classifier example: the wide-classification scenario from the paper's
// introduction — an e-commerce ResNet whose 100K-class fully-connected
// head (205M parameters) dwarfs its 24M-parameter convolutional backbone.
// The right plan duplicates the backbone and shards only the head, and
// TAPAS finds it automatically.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"tapas"
)

func main() {
	fmt.Println("== wide-classifier ResNet ==")

	ctx := context.Background()
	eng := tapas.NewEngine()

	for _, model := range []string{"resnet-26M", "resnet-228M", "resnet-843M"} {
		res, err := eng.Search(ctx, model, 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n  plan: %s\n  perf: %s\n", model, res.Strategy.Describe(), res.Report)

		// Show where the classifier head landed.
		for _, gn := range res.Strategy.Graph.Nodes {
			if p := res.Strategy.Assign[gn.ID]; gn.Anchor != nil && strings.HasPrefix(gn.Anchor.Name, "fc_matmul") {
				fmt.Printf("  FC head (%s params): %s — %s\n",
					gn.Weights[0].Shape, p.Name, p.SRC)
			}
		}

		dp, err := eng.Baseline(ctx, "dp", model, 8)
		if err != nil {
			log.Fatal(err)
		}
		ds, err := eng.Baseline(ctx, "deepspeed", model, 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  DP: %s | DeepSpeed: %s\n", dp.Report, ds.Report)
	}
}
