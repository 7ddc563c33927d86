// Package service defines the versioned, wire-serializable contract of
// the TAPAS serving layer — the v1 DTOs spoken by the tapas-serve HTTP
// daemon — plus the pieces that implement it: a Service wrapping one
// shared tapas.Engine (so the result cache and singleflight dedupe serve
// repeat traffic), an async job queue with progress fan-out, and an HTTP
// Client.
//
// # Versioning policy
//
// SchemaVersion names the wire schema of the request/response DTOs, and
// every SearchResponse carries it. Additive changes (new optional
// fields) keep the version; any change that would break an existing
// reader — renaming or removing a field, changing a field's meaning or
// units — bumps it and the HTTP path prefix (/v1 → /v2) together. The
// embedded plan document is versioned independently via
// PlanJSON.SchemaVersion, because plans are stored on disk and outlive
// API versions.
package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"tapas"
	"tapas/store"
	"tapas/store/replicate"
)

// SchemaVersion is the current wire schema of the v1 DTOs; it is echoed
// in every SearchResponse. See the package comment for the policy.
const SchemaVersion = 1

// SearchRequest asks for one TAPAS search: a registered model name or an
// inline graphio spec, a GPU count, a cluster preset, and optional
// search-option overrides. Exactly one of Model and Spec must be set.
type SearchRequest struct {
	// Model is a registered model name (see GET /v1/models).
	Model string `json:"model,omitempty"`
	// Spec is an inline model description in the graphio line language,
	// searched instead of a registered model.
	Spec string `json:"spec,omitempty"`
	// GPUs is the total device count (must be ≥ 1).
	GPUs int `json:"gpus"`
	// Cluster selects a cluster preset: "" or "v100" for the paper's
	// V100 testbed sized from GPUs. Unknown presets are rejected.
	Cluster string `json:"cluster,omitempty"`
	// Workers bounds the search worker goroutines (0 = server default).
	// The resulting plan is identical for every value.
	Workers int `json:"workers,omitempty"`
	// Exhaustive selects exhaustive search (TAPAS-ES, no folding).
	Exhaustive bool `json:"exhaustive,omitempty"`
	// TimeBudgetMS bounds the enumeration phase, in milliseconds
	// (0 = no limit).
	TimeBudgetMS int64 `json:"time_budget_ms,omitempty"`
}

// clusterPresets enumerates the accepted SearchRequest.Cluster values.
// Both name the paper's testbed (V100 SXM2 32 GB nodes of 8, 100 GbE),
// which is also the engine default — the preset field exists so future
// hardware presets extend the wire contract without a version bump.
var clusterPresets = []string{"", "v100"}

// Validate checks the request's shape before any work is queued.
func (r *SearchRequest) Validate() error {
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
	if r.Workers < 0 {
		return badRequestf("workers must be ≥ 0, got %d", r.Workers)
	}
	if r.TimeBudgetMS < 0 {
		return badRequestf("time_budget_ms must be ≥ 0, got %d", r.TimeBudgetMS)
	}
	return nil
}

// DeviceSummary describes the per-device shape of the winning plan.
type DeviceSummary struct {
	// Devices is the total accelerator count the plan spans.
	Devices int `json:"devices"`
	// MemBytesPerDevice is the estimated per-device memory footprint.
	MemBytesPerDevice int64 `json:"mem_bytes_per_device"`
	// Nodes is the operator count of the graph one device executes
	// (original operators with sharded shapes plus collectives).
	Nodes int `json:"nodes"`
	// Collectives is the number of communication operators inserted
	// into the per-device graph.
	Collectives int `json:"collectives"`
}

// SearchResponse is the v1 answer to a SearchRequest. The embedded
// ResultSummary contributes the flat model/gpus/plan_summary/cost/
// cache_hit/report/timing fields; Plan carries the full per-node
// assignment, round-trippable via RehydratePlan.
type SearchResponse struct {
	SchemaVersion int `json:"schema_version"`
	tapas.ResultSummary
	Plan    *PlanJSON      `json:"plan,omitempty"`
	Devices *DeviceSummary `json:"devices,omitempty"`
}

// MaxBatchSize bounds the requests of one POST /v1/search:batch call.
// Larger fleets should split into multiple batches (each batch is one
// Engine.SearchAll round sharing the machine across its specs).
const MaxBatchSize = 64

// BatchSearchRequest asks for many searches in one round trip.
type BatchSearchRequest struct {
	// Requests are searched concurrently; results are positional.
	Requests []SearchRequest `json:"requests"`
}

// BatchSearchItem answers one request of a batch: exactly one of
// Response and Error is set. A failed item never fails the batch.
type BatchSearchItem struct {
	// Response is the item's search response, nil when the item failed.
	Response *SearchResponse `json:"response,omitempty"`
	// Error describes the item's failure ("" on success).
	Error string `json:"error,omitempty"`
	// Status is the HTTP status the item's error maps to (the same
	// mapping a single-request call would answer with); 0 on success.
	Status int `json:"status,omitempty"`
}

// OK reports whether the item succeeded.
func (it *BatchSearchItem) OK() bool { return it.Error == "" }

// BatchSearchResponse is the v1 answer to a batch: Results[i] answers
// Requests[i]. The call itself only fails for envelope problems (empty
// or oversized batch, cancelled request); per-item failures travel in
// the items.
type BatchSearchResponse struct {
	SchemaVersion int               `json:"schema_version"`
	Results       []BatchSearchItem `json:"results"`
}

// JobState names one stage of an async job's lifecycle. Transitions:
// queued → running → done | failed | cancelled, plus queued → cancelled
// for jobs cancelled before a worker picks them up.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobProgress is the latest observed search progress of a running job.
type JobProgress struct {
	Phase        string `json:"phase"`
	ClassesDone  int    `json:"classes_done"`
	ClassesTotal int    `json:"classes_total"`
	Examined     int    `json:"examined"`
	ElapsedMS    int64  `json:"elapsed_ms"`
}

// JobStatus is the wire form of one async job.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Model string   `json:"model"`
	GPUs  int      `json:"gpus"`

	CreatedUnixMS  int64 `json:"created_unix_ms"`
	StartedUnixMS  int64 `json:"started_unix_ms,omitempty"`
	FinishedUnixMS int64 `json:"finished_unix_ms,omitempty"`

	// Attempts counts how many times a worker started this job —
	// greater than 1 means a restarted daemon re-ran it after a crash.
	Attempts int `json:"attempts,omitempty"`
	// Adopted marks a job re-enqueued from a previous process's durable
	// record; its SSE subscribers from before the restart are gone, and
	// (behind a gateway) it may answer from a different replica than the
	// one that accepted it.
	Adopted bool `json:"adopted,omitempty"`

	// Error is set when State is failed (and on cancelled jobs, the
	// cancellation cause).
	Error string `json:"error,omitempty"`
	// Progress is the latest search progress (running jobs only).
	Progress *JobProgress `json:"progress,omitempty"`
	// Result is set when State is done.
	Result *SearchResponse `json:"result,omitempty"`
}

// JobEventType distinguishes the two event kinds of a job's SSE stream.
type JobEventType string

const (
	// EventState reports a lifecycle transition (the State field).
	EventState JobEventType = "state"
	// EventProgress reports live search progress (the phase fields).
	EventProgress JobEventType = "progress"
)

// JobEvent is one observation on a job's event stream.
type JobEvent struct {
	JobID string       `json:"job_id"`
	Type  JobEventType `json:"type"`

	// State is set on EventState events; a terminal state ends the
	// stream.
	State JobState `json:"state,omitempty"`
	// Error accompanies a terminal failed/cancelled state.
	Error string `json:"error,omitempty"`

	// Phase fields are set on EventProgress events.
	Phase        string `json:"phase,omitempty"`
	Kind         string `json:"kind,omitempty"` // enter, progress, exit
	ClassesDone  int    `json:"classes_done,omitempty"`
	ClassesTotal int    `json:"classes_total,omitempty"`
	Examined     int    `json:"examined,omitempty"`
	ElapsedMS    int64  `json:"elapsed_ms,omitempty"`
}

// Stats is the health snapshot served by GET /v1/healthz.
type Stats struct {
	Queued        int              `json:"queued"`
	Running       int              `json:"running"`
	Finished      int              `json:"finished"` // retained terminal jobs
	QueueCapacity int              `json:"queue_capacity"`
	JobWorkers    int              `json:"job_workers"`
	Draining      bool             `json:"draining"`
	Cache         tapas.CacheStats `json:"cache"`
	// Store reports the persistent plan store's traffic; nil when the
	// daemon runs without -store-dir.
	Store *store.Stats `json:"store,omitempty"`
	// JobsDurable reports whether the async job table persists through
	// a jobs backend (a daemon with -store-dir keeps its job records
	// under <store-dir>/jobs).
	JobsDurable bool `json:"jobs_durable,omitempty"`
	// JobsAdopted is the number of orphaned queued/running jobs this
	// process adopted (re-enqueued) from durable records at startup.
	JobsAdopted int `json:"jobs_adopted"`
	// JobStore reports the durable job machinery's traffic; nil when
	// jobs are in-memory only.
	JobStore *JobStoreStats `json:"job_store,omitempty"`
	// TasksExecuted counts prefix tasks this daemon executed for remote
	// coordinators via POST /v1/tasks.
	TasksExecuted uint64 `json:"tasks_executed"`
	// TasksFailed counts rejected or failed /v1/tasks batches.
	TasksFailed uint64 `json:"tasks_failed"`
	// Fleet reports the scatter coordinator's view of its peers; nil
	// when the daemon runs without -fleet.
	Fleet *FleetStats `json:"fleet,omitempty"`
	// Replication reports the replicating store backend's traffic —
	// write fanout and read-repair — and per-peer health; nil when the
	// daemon runs without replication (no -store-peer).
	Replication *replicate.Stats `json:"replication,omitempty"`
}

// ---------------------------------------------------------------------------
// Error taxonomy, mapped onto HTTP statuses by the daemon.

var (
	// ErrQueueFull rejects a Submit when the bounded job queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown rejects new work while the service drains
	// (HTTP 503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrNotFound reports an unknown job ID (HTTP 404).
	ErrNotFound = errors.New("service: job not found")
)

// BadRequestError marks a request the caller must fix (HTTP 400).
type BadRequestError struct{ msg string }

func (e *BadRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &BadRequestError{msg: fmt.Sprintf(format, args...)}
}

// IsBadRequest reports whether err (or anything it wraps) is a request
// error the caller must fix.
func IsBadRequest(err error) bool {
	var bre *BadRequestError
	return errors.As(err, &bre)
}

// ErrorStatus maps the service error taxonomy onto an HTTP status: the
// single place the daemon's top-level responses and the per-item
// statuses of a batch agree on. nil maps to 200.
func ErrorStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, tapas.ErrUnknownModel):
		// An unknown model is a resource miss, not a malformed request:
		// the name space is enumerable via GET /v1/models.
		return http.StatusNotFound
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case IsBadRequest(err):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The search was cut short: by the client going away, a client
		// deadline, or the server draining. 503 tells retrying clients
		// the truth either way.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
