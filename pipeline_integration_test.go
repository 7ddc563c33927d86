package tapas

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/export"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/models"
	"tapas/internal/pipeline"
)

// TestSearchAllRegisteredModels is the whole-pipeline integration sweep:
// every registered architecture must group, mine, search, validate,
// reconstruct and simulate without error on 8 GPUs.
func TestSearchAllRegisteredModels(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	for _, name := range Models() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := coldSearch(name, 8)
			if err != nil {
				t.Fatalf("search: %v", err)
			}
			if res.Report.IterationTime <= 0 {
				t.Error("no simulated time")
			}
			pg, err := res.Parallel()
			if err != nil {
				t.Fatalf("reconstruct: %v", err)
			}
			if err := pg.PerDevice.Validate(); err != nil {
				t.Errorf("reconstructed graph invalid: %v", err)
			}
			// Every searched strategy serializes and rehydrates.
			if err := roundTrip(res); err != nil {
				t.Errorf("export round trip: %v", err)
			}
		})
	}
}

func roundTrip(res *Result) error {
	doc, err := export.FromStrategy(res.Strategy)
	if err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	sj, err := export.ReadStrategyJSON(bytes.NewReader(data))
	if err != nil {
		return err
	}
	_, err = sj.Rehydrate(res.Strategy.Graph, cost.Default(cluster.V100GPUs(res.Strategy.W)))
	return err
}

// TestPipelinePlusTensorParallel combines the §5.6 pipeline extension with
// the TP search: partition a deep model into node-sized stages, then
// verify every stage sub-plan still passes the per-model search.
func TestPipelinePlusTensorParallel(t *testing.T) {
	src, err := models.Build("t5-770M")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.Group(src)
	if err != nil {
		t.Fatal(err)
	}
	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	plan, err := pipeline.Partition(g, classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, st := range plan.Stages {
		total += st.FwdFLOPs
	}
	whole := int64(0)
	for _, gn := range g.Nodes {
		whole += gn.ForwardFLOPs()
	}
	if total != whole {
		t.Errorf("stage FLOPs %d != model FLOPs %d", total, whole)
	}
}
