package service

import (
	"io"

	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/export"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/strategy"
)

// PlanJSON is the versioned wire form of a parallel strategy — the plan
// document embedded in every SearchResponse and written by
// `tapas-search -format json`. It is the public promotion of the
// internal export schema: one assignment per GraphNode (topological
// node ID, pattern name, layouts, SRC expression, collectives) plus the
// resharding events, under an explicit schema_version. See
// PlanSchemaVersion for the compatibility policy.
type PlanJSON = export.StrategyJSON

// PlanAssignment is one GraphNode's pattern choice within a PlanJSON.
type PlanAssignment = export.AssignmentJSON

// PlanEvent is one collective event within a PlanJSON.
type PlanEvent = export.EventJSON

// PlanSchemaVersion is the current plan document schema. Additive
// changes keep the version; breaking changes bump it. Readers accept
// documents at or below their own version.
const PlanSchemaVersion = export.SchemaVersion

// NewPlan renders a strategy as its wire-form plan document.
func NewPlan(s *strategy.Strategy) (*PlanJSON, error) {
	return export.FromStrategy(s)
}

// ReadPlan parses a plan document, rejecting schema versions newer than
// PlanSchemaVersion.
func ReadPlan(r io.Reader) (*PlanJSON, error) {
	return export.ReadStrategyJSON(r)
}

// RehydratePlan re-attaches a plan to a computational graph (the model
// it was searched on — by structure; node names may differ), rebuilding
// the full in-memory Strategy: pattern pointers, resharding events,
// per-device memory, and the plan's cost priced under the default
// cost model for the plan's worker count. A plan that survives
// rehydration is executable: every pattern exists, every boundary
// validates under the symbolic shape check.
func RehydratePlan(p *PlanJSON, g *graph.Graph) (*strategy.Strategy, error) {
	gg, err := ir.Group(g)
	if err != nil {
		return nil, err
	}
	return p.Rehydrate(gg, cost.Default(cluster.V100GPUs(p.Workers)))
}
