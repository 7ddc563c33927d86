package service

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"tapas"
	"tapas/internal/cluster"
	"tapas/internal/cost"
	"tapas/internal/graph"
	"tapas/internal/graphio"
	"tapas/internal/ir"
	"tapas/internal/strategy"
	"tapas/internal/trace"
)

// This file is the wire side of distributed cold search: the v1 DTOs of
// POST /v1/tasks and the Service executor behind it. A coordinator
// (service/dispatch) splits a cold search's enumeration into prefix
// tasks and ships them here; this daemon rebuilds the identical
// enumeration context from the request's graph reference and replays
// the tasks against its own registry and cost model. Patterns travel as
// menu indices — see internal/strategy/tasks.go for why that encoding
// is lossless — and every float is recomputed locally, so the
// coordinator's merged plan is bit-identical to a single-process
// search.

// MaxTaskBatch bounds the tasks of one POST /v1/tasks call.
const MaxTaskBatch = 4096

// TaskSpec is one shipped prefix task: an assignment prefix as menu
// indices and the candidate budget of the subtree under it.
type TaskSpec struct {
	// Prefix picks menu entry Prefix[d] for the d-th instance node;
	// empty means the whole tree.
	Prefix []int `json:"prefix,omitempty"`
	// Budget is the candidate budget the serial search grants the
	// subtree (≥ 0).
	Budget int `json:"budget"`
}

// TaskRequest asks a daemon to execute prefix tasks against its local
// copy of a graph. The graph travels by reference — a registered model
// name or an inline graphio spec — plus the enumeration options that
// shape pattern menus and edge checks; everything else (budgets,
// prefixes) is per-task.
type TaskRequest struct {
	// SchemaVersion of the task DTOs (0 is read as 1); requests newer
	// than the daemon understands are rejected with 400.
	SchemaVersion int `json:"schema_version,omitempty"`
	// Model is a registered model name. Exactly one of Model and Spec
	// must be set.
	Model string `json:"model,omitempty"`
	// Spec is an inline model description in the graphio line language.
	Spec string `json:"spec,omitempty"`
	// GPUs is the total device count (≥ 1); the executor sizes its
	// cluster preset from it.
	GPUs int `json:"gpus"`
	// Cluster selects a cluster preset: "" or "v100".
	Cluster string `json:"cluster,omitempty"`
	// ClusterSig, when set, must equal the executor's resolved cluster
	// signature — a cheap end-to-end check that both sides price
	// collectives identically before any work runs.
	ClusterSig string `json:"cluster_sig,omitempty"`
	// W is the tensor-parallel group size (≥ 1). It shapes the pattern
	// menus and must match the coordinator's enumeration exactly.
	W int `json:"w"`
	// AllowReshard permits all-gather recovery at split→replicated
	// boundaries (EnumOptions.AllowReshard).
	AllowReshard bool `json:"allow_reshard"`
	// MemPenalty is still decoded so that a request setting it is
	// refused: menus are ordered by cost alone, and no coordinator sends
	// a non-zero penalty.
	MemPenalty float64 `json:"mem_penalty,omitempty"`
	// TimeBudgetMS bounds enumeration inside the tasks, in milliseconds
	// (0 = none). Deadline cuts are timing-dependent by contract.
	TimeBudgetMS int64 `json:"time_budget_ms,omitempty"`
	// DeadlineMS bounds this request's total execution, in milliseconds
	// (0 = none beyond the HTTP context). A deadline-cut batch answers
	// 503 — partial task results are never returned, because merging
	// them would diverge from the serial search.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Instance is the subgraph instance as GraphNode IDs in assignment
	// order, exactly as the coordinator's mining produced it.
	Instance []int `json:"instance"`
	// Tasks are the prefix tasks to execute (1..MaxTaskBatch).
	Tasks []TaskSpec `json:"tasks"`
}

// Validate checks the request's shape before any work runs.
func (r *TaskRequest) Validate() error {
	if r.SchemaVersion > SchemaVersion {
		return badRequestf("task schema_version %d is newer than this daemon's %d", r.SchemaVersion, SchemaVersion)
	}
	if (r.Model == "") == (r.Spec == "") {
		return badRequestf("exactly one of model and spec must be set")
	}
	if r.GPUs < 1 {
		return badRequestf("gpus must be ≥ 1, got %d", r.GPUs)
	}
	ok := false
	for _, p := range clusterPresets {
		if r.Cluster == p {
			ok = true
			break
		}
	}
	if !ok {
		return badRequestf("unknown cluster preset %q (available: %q)", r.Cluster, clusterPresets[1:])
	}
	if r.W < 1 {
		return badRequestf("w must be ≥ 1, got %d", r.W)
	}
	if len(r.Instance) == 0 {
		return badRequestf("instance must list at least one node id")
	}
	if len(r.Tasks) == 0 || len(r.Tasks) > MaxTaskBatch {
		return badRequestf("tasks must hold 1..%d entries, got %d", MaxTaskBatch, len(r.Tasks))
	}
	for i, t := range r.Tasks {
		if t.Budget < 0 {
			return badRequestf("task %d: budget must be ≥ 0, got %d", i, t.Budget)
		}
		if len(t.Prefix) > len(r.Instance) {
			return badRequestf("task %d: prefix of %d exceeds instance size %d", i, len(t.Prefix), len(r.Instance))
		}
	}
	if r.TimeBudgetMS < 0 || r.DeadlineMS < 0 {
		return badRequestf("time_budget_ms and deadline_ms must be ≥ 0")
	}
	if r.MemPenalty != 0 {
		return badRequestf("mem_penalty must be 0, got %g: menus are ordered by cost alone", r.MemPenalty)
	}
	return nil
}

// TaskResult answers one shipped task: the complete assignments found
// under its prefix (one menu index per instance node, serial
// depth-first order) and the subtree's effort counters.
type TaskResult struct {
	Candidates [][]int `json:"candidates,omitempty"`
	Examined   int     `json:"examined"`
	Pruned     int     `json:"pruned"`
	Truncated  bool    `json:"truncated,omitempty"`
	TimedOut   bool    `json:"timed_out,omitempty"`
	Canceled   bool    `json:"canceled,omitempty"`
}

// TaskResponse is the v1 answer to a TaskRequest: Results[i] answers
// Tasks[i].
type TaskResponse struct {
	SchemaVersion int          `json:"schema_version"`
	Results       []TaskResult `json:"results"`
}

// FleetStats is a scatter coordinator's health snapshot, embedded in
// /v1/healthz when the daemon runs with -fleet.
type FleetStats struct {
	// Peers is the configured fleet size (this daemon excluded).
	Peers int `json:"peers"`
	// PeersHealthy is how many peers currently accept shipped tasks.
	PeersHealthy int `json:"peers_healthy"`
	// TasksScattered counts prefix tasks successfully executed by peers.
	TasksScattered uint64 `json:"tasks_scattered"`
	// TasksFailedOver counts batch attempts that had to move to another
	// peer (or to the local pool) after an error or timeout.
	TasksFailedOver uint64 `json:"tasks_failed_over"`
	// TasksLocal counts prefix tasks executed by the local pool — the
	// coordinator's own scatter share plus every failover of last
	// resort.
	TasksLocal uint64 `json:"tasks_local"`
}

// FleetStatser reports a scatter coordinator's health; implemented by
// dispatch.Coordinator and consumed by Stats/healthz/metrics.
type FleetStatser interface {
	FleetStats() FleetStats
}

// ExecuteTasks serves one POST /v1/tasks batch: validate, rebuild the
// enumeration context from the wire reference, execute every task on
// the local pool, and account the outcome in the task counters
// (tasks_executed / tasks_failed on healthz).
func (s *Service) ExecuteTasks(ctx context.Context, req TaskRequest) (*TaskResponse, error) {
	start := time.Now()
	ctx, span := trace.StartSpan(ctx, "tasks.execute")
	span.SetAttr("model", req.Model)
	span.SetAttr("gpus", strconv.Itoa(req.GPUs))
	span.SetAttr("tasks", strconv.Itoa(len(req.Tasks)))
	resp, err := s.executeTasks(ctx, req)
	span.SetError(err)
	span.End()
	s.obs.taskHist.Observe(time.Since(start).Seconds())
	if err != nil {
		s.tasksFailed.Add(1)
		return nil, err
	}
	s.tasksExecuted.Add(uint64(len(req.Tasks)))
	return resp, nil
}

func (s *Service) executeTasks(ctx context.Context, req TaskRequest) (*TaskResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	g, err := taskGraph(req)
	if err != nil {
		return nil, err
	}
	gg, err := ir.Group(g)
	if err != nil {
		return nil, badRequestf("grouping spec failed: %v", err)
	}
	cl := cluster.V100GPUs(req.GPUs)
	if req.ClusterSig != "" && cl.Signature() != req.ClusterSig {
		return nil, badRequestf("cluster signature mismatch: coordinator %q, executor %q", req.ClusterSig, cl.Signature())
	}
	opt := strategy.EnumOptions{
		W:            req.W,
		AllowReshard: req.AllowReshard,
		TimeBudget:   time.Duration(req.TimeBudgetMS) * time.Millisecond,
	}
	tctx := ctx
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	specs := make([]strategy.TaskSpec, len(req.Tasks))
	for i, t := range req.Tasks {
		specs[i] = strategy.TaskSpec{Prefix: t.Prefix, Budget: t.Budget}
	}
	results, err := strategy.ExecuteTasks(tctx, gg, req.Instance, cost.Default(cl), opt, specs)
	if err != nil {
		// The executor only errors on malformed batches (unknown node
		// ids, inconsistent prefixes): the coordinator's bug to fix.
		return nil, badRequestf("invalid task batch: %v", err)
	}
	if err := tctx.Err(); err != nil {
		// Deadline or disconnect cut the walk short: the results are
		// partial and must never be merged — answer an error so the
		// coordinator fails over or recomputes locally.
		return nil, err
	}
	resp := &TaskResponse{SchemaVersion: SchemaVersion, Results: make([]TaskResult, len(results))}
	for i, r := range results {
		resp.Results[i] = TaskResult{
			Candidates: r.Candidates,
			Examined:   r.Stats.Examined,
			Pruned:     r.Stats.Pruned,
			Truncated:  r.Stats.Truncated,
			TimedOut:   r.Stats.TimedOut,
			Canceled:   r.Stats.Canceled,
		}
	}
	return resp, nil
}

// taskGraph resolves a task request's graph reference, mirroring
// resolveGraph but always materializing the graph (the executor needs
// the nodes, not just the name).
func taskGraph(req TaskRequest) (*graph.Graph, error) {
	if req.Spec != "" {
		g, err := graphio.Parse(strings.NewReader(req.Spec))
		if err != nil {
			return nil, badRequestf("invalid spec: %v", err)
		}
		return g, nil
	}
	g, err := tapas.BuildModel(req.Model)
	if err != nil {
		// Wraps the registry's sentinel so unknown models answer 404,
		// exactly as on the search path.
		return nil, fmt.Errorf("cannot build %q (see /v1/models): %w", req.Model, err)
	}
	return g, nil
}
