package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"tapas"
	"tapas/internal/graph"
	"tapas/internal/graphio"
	"tapas/internal/trace"
	"tapas/store"
	"tapas/store/replicate"
)

// Config sizes a Service. The zero value is usable: defaults fill in.
type Config struct {
	// EngineOptions configure the shared tapas.Engine.
	EngineOptions []tapas.Option
	// QueueSize bounds the async job queue (default 64). A Submit
	// against a full queue fails with ErrQueueFull.
	QueueSize int
	// JobWorkers is the number of jobs run concurrently (default 2).
	JobWorkers int
	// MaxFinished bounds the terminal jobs retained for Status/Result
	// polling (default 256, oldest evicted first). With a durable job
	// store, eviction also deletes the job's record.
	MaxFinished int
	// JobsBackend, when set, makes the async job table durable: every
	// submission and state transition is persisted as a JobRecord, and
	// New adopts orphaned queued/running records left by a previous
	// process — see New. Use a separate namespace (e.g. a "jobs"
	// subdirectory) from any plan-store backend.
	JobsBackend store.Backend
	// OnJobCorrupt observes job records skipped at load and failed
	// write-behind persists (nil: silent).
	OnJobCorrupt func(id string, err error)
	// Fleet, when set, reports the scatter coordinator's health through
	// Stats/healthz/metrics. A daemon running with -fleet wires its
	// dispatch.Coordinator here.
	Fleet FleetStatser
	// Replication, when set, reports the replicating store backend's
	// traffic and peer health through Stats/healthz/metrics. A daemon
	// running with a replicated corpus (-store-dir plus -store-peer
	// flags) wires its replicate.Backend here.
	Replication ReplicationStatser
	// Trace, when set, is the process's flight recorder: requests are
	// traced through it (propagated traces always, organic traffic per
	// its sampling), and NewHandler serves its ring buffer as
	// GET /v1/traces. Nil disables tracing — spans become no-ops and
	// /v1/traces answers empty.
	Trace *trace.Recorder
	// TraceSlow, when positive, emits a structured slow-request log
	// line (trace ID, client, model, per-phase breakdown) for every
	// search slower than this threshold.
	TraceSlow time.Duration
	// Logf receives the service's structured log lines (request and
	// slow-request); nil is silent.
	Logf func(format string, args ...any)
	// LogRequests emits one key=value line per HTTP request through
	// Logf.
	LogRequests bool
}

// ReplicationStatser is the slice of store/replicate.Backend the service
// needs for health reporting.
type ReplicationStatser interface {
	Stats() replicate.Stats
}

const (
	defaultQueueSize   = 64
	defaultJobWorkers  = 2
	defaultMaxFinished = 256
)

// Service implements the v1 contract over one shared tapas.Engine: a
// synchronous Search path and an async job queue (Submit / Status /
// Result / Cancel / Subscribe), both funneling into the engine's result
// cache and singleflight dedupe so repeat traffic is served in
// microseconds. Construct with New, retire with Shutdown.
type Service struct {
	eng *tapas.Engine

	queueCap   int
	jobWorkers int

	jobs     *jobTable
	jobStore *jobStore // nil without Config.JobsBackend
	adopted  int       // jobs re-enqueued from a previous process
	draining atomic.Bool

	fleet         FleetStatser       // nil when not scattering
	replication   ReplicationStatser // nil when the corpus is unreplicated
	tasksExecuted atomic.Uint64
	tasksFailed   atomic.Uint64

	obs *observability // tracing + latency histograms (always non-nil)

	rootCtx    context.Context
	rootCancel context.CancelFunc
}

// New builds a Service and starts its job workers. With
// Config.JobsBackend set, it first loads the durable job records left by
// the previous process: terminal records are re-inserted so clients can
// keep polling results across a restart, and orphaned queued/running
// records are adopted — re-enqueued (marked Adopted, original IDs and
// submission order preserved) so a crash or kill -9 never loses accepted
// work. Adoption is idempotent by job ID: re-running a job whose plan
// already landed in the engine store is a cache hit. New fails only when
// the configured jobs backend cannot be listed.
func New(cfg Config) (*Service, error) {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = defaultQueueSize
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = defaultJobWorkers
	}
	if cfg.MaxFinished <= 0 {
		cfg.MaxFinished = defaultMaxFinished
	}
	s := &Service{
		queueCap:    cfg.QueueSize,
		jobWorkers:  cfg.JobWorkers,
		fleet:       cfg.Fleet,
		replication: cfg.Replication,
		obs:         newObservability(cfg),
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())

	var recs []*JobRecord
	if cfg.JobsBackend != nil {
		s.jobStore = newJobStore(cfg.JobsBackend, cfg.OnJobCorrupt)
		var err error
		recs, err = s.jobStore.load()
		if err != nil {
			s.jobStore.Close()
			s.rootCancel()
			return nil, err
		}
	}
	// The queue must hold every adoptable record on top of the
	// configured capacity: adoption enqueues before the workers start,
	// and must never block or reject.
	s.jobs = newJobTable(cfg.QueueSize+len(recs), cfg.MaxFinished)

	s.eng = tapas.NewEngine(cfg.EngineOptions...)

	for _, rec := range recs {
		s.restoreJob(rec)
	}
	if s.jobStore != nil {
		s.dropRecords(s.jobs.evict()) // retention applies to restored terminals too
	}

	for i := 0; i < cfg.JobWorkers; i++ {
		s.jobs.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// restoreJob reconstructs one durable record in the table: terminal
// records come back as poll-able history, queued/running records are
// adopted and re-enqueued. Runs before the workers start, so the
// synchronous persist happens-before the first re-run attempt.
func (s *Service) restoreJob(rec *JobRecord) {
	j := &job{req: rec.Request, st: rec.JobStatus}
	// Records written before the status was embedded carry gpus only
	// inside request. A restored job reports no progress, and a result
	// only when done, whatever the bytes on disk say.
	j.st.GPUs = rec.Request.GPUs
	j.st.Progress = nil
	if j.st.State != JobDone {
		j.st.Result = nil
	}
	j.ctx, j.cancel = context.WithCancel(s.rootCtx)

	s.jobs.mu.Lock()
	if _, dup := s.jobs.byID[rec.ID]; dup {
		s.jobs.mu.Unlock()
		j.cancel()
		return // two records hashing to one job ID cannot both live
	}
	s.jobs.noteSeq(rec.ID)
	s.jobs.byID[rec.ID] = j
	s.jobs.order = append(s.jobs.order, rec.ID)
	s.jobs.mu.Unlock()

	if rec.State.Terminal() {
		j.cancel()
		return
	}

	// Orphaned queued/running job: adopt it. Re-resolve the request
	// against this binary's registry — a model that no longer exists
	// fails the job instead of crashing the worker later.
	j.st.State, j.st.StartedUnixMS, j.st.Error, j.st.Adopted = JobQueued, 0, "", true
	err := rec.Request.Validate()
	if err == nil {
		var g *graph.Graph
		if g, err = s.resolveGraph(rec.Request); err == nil {
			j.graph = g
		}
	}
	if err != nil {
		j.st.State, j.st.Error = JobFailed, fmt.Sprintf("adoption failed: %v", err)
		j.st.FinishedUnixMS = time.Now().UnixMilli()
		j.cancel()
		s.persistRestored(j)
		return
	}
	s.adopted++
	j.subs = make(map[int]chan JobEvent) // live again: it has streams to close
	// Synchronous persist: the disk must say "adopted, queued" before
	// any worker can start (and re-persist) this job.
	s.persistRestored(j)
	s.jobs.queue <- j // sized for every adoptable record; cannot block
}

// persistRestored writes an adopted job's record synchronously, routing
// failures to the corruption observer (a failed rewrite means a stale
// record; the worst outcome is one extra adoption next restart).
func (s *Service) persistRestored(j *job) {
	if s.jobStore == nil {
		return
	}
	if err := s.jobStore.put(j.record()); err != nil && s.jobStore.onCorrupt != nil {
		s.jobStore.onCorrupt(JobRecordID(j.st.ID), err)
	}
}

// Engine exposes the shared engine (e.g. for cache statistics).
func (s *Service) Engine() *tapas.Engine { return s.eng }

// Models lists the registered model names.
func (s *Service) Models() []string { return tapas.Models() }

// Stats snapshots the service for health reporting.
func (s *Service) Stats() Stats {
	queued, running, finished, draining := s.jobs.counts()
	st := Stats{
		Queued:        queued,
		Running:       running,
		Finished:      finished,
		QueueCapacity: s.queueCap,
		JobWorkers:    s.jobWorkers,
		Draining:      draining,
		Cache:         s.eng.CacheStats(),
	}
	if ss, ok := s.eng.StoreStats(); ok {
		st.Store = &ss
	}
	if s.jobStore != nil {
		st.JobsDurable = true
		st.JobsAdopted = s.adopted
		jss := s.jobStore.Stats()
		st.JobStore = &jss
	}
	st.TasksExecuted = s.tasksExecuted.Load()
	st.TasksFailed = s.tasksFailed.Load()
	if s.fleet != nil {
		fs := s.fleet.FleetStats()
		st.Fleet = &fs
	}
	if s.replication != nil {
		rs := s.replication.Stats()
		st.Replication = &rs
	}
	return st
}

// Search runs one request synchronously: validate, resolve the model or
// parse the inline spec, search through the shared engine (cache,
// singleflight), and render the v1 response.
func (s *Service) Search(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	res, err := s.searchSync(ctx, req)
	if err != nil {
		return nil, err
	}
	return NewSearchResponse(res)
}

// searchSync is the engine round of one synchronous request, shared by
// Search and POST /v1/search (which renders the result from its
// memoized plan document instead of a SearchResponse).
func (s *Service) searchSync(ctx context.Context, req SearchRequest) (*tapas.Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	g, err := s.resolveGraph(req)
	if err != nil {
		return nil, err
	}
	return s.search(ctx, req, g, nil)
}

// resolveGraph parses an inline spec into a graph, or validates a model
// name; a nil graph means "search the registered model by name" (which
// lets the engine's per-model fingerprint memo skip the rebuild).
func (s *Service) resolveGraph(req SearchRequest) (*graph.Graph, error) {
	if req.Spec != "" {
		g, err := graphio.Parse(strings.NewReader(req.Spec))
		if err != nil {
			return nil, badRequestf("invalid spec: %v", err)
		}
		return g, nil
	}
	found := false
	for _, m := range tapas.Models() {
		if m == req.Model {
			found = true
			break
		}
	}
	if !found {
		// Wraps the engine's typed sentinel so the daemon answers 404 —
		// the model name space is enumerable, so a miss is a resource
		// miss, not a malformed request.
		return nil, fmt.Errorf("unknown model %q (see /v1/models): %w", req.Model, tapas.ErrUnknownModel)
	}
	return nil, nil
}

// search is the engine round shared by the sync path and job workers.
// progress, when set, observes exactly this search's events (the job
// path passes its job's callback; the sync path passes nil).
func (s *Service) search(ctx context.Context, req SearchRequest, g *graph.Graph, progress func(tapas.ProgressEvent)) (*tapas.Result, error) {
	ctx, finish := s.observeSearch(ctx, req)
	spec := specForRequest(req, g)
	spec.Progress = progress
	res, err := s.eng.SearchSpec(ctx, spec)
	finish(res, err)
	return res, err
}

// specForRequest renders a validated request as an engine spec.
func specForRequest(req SearchRequest, g *graph.Graph) tapas.SearchSpec {
	// SpecText makes inline-spec searches shippable to fleet peers: the
	// engine only scatters a search whose graph has a wire identity.
	spec := tapas.SearchSpec{Model: req.Model, Graph: g, GPUs: req.GPUs, SpecText: req.Spec}
	if req.Workers != 0 || req.Exhaustive || req.TimeBudgetMS != 0 {
		spec.Options = &tapas.Options{
			Workers:    req.Workers,
			Exhaustive: req.Exhaustive,
			TimeBudget: time.Duration(req.TimeBudgetMS) * time.Millisecond,
		}
	}
	return spec
}

// SearchBatch answers many requests in one Engine.SearchAll round: the
// whole batch shares the machine (each search gets an even share of the
// worker budget), identical specs are deduplicated by the engine's
// singleflight, and repeat traffic hits the cache and store exactly as
// on the single path. Results are positional — Results[i] answers
// Requests[i] — and failures are per-item: an invalid or failing
// request fills its item's Error/Status and never aborts its
// neighbors. SearchBatch itself only errors for envelope problems
// (empty or oversized batch) or a cancelled context.
func (s *Service) SearchBatch(ctx context.Context, req BatchSearchRequest) (*BatchSearchResponse, error) {
	if len(req.Requests) == 0 {
		return nil, badRequestf("batch must contain at least one request")
	}
	if len(req.Requests) > MaxBatchSize {
		return nil, badRequestf("batch of %d requests exceeds the limit of %d", len(req.Requests), MaxBatchSize)
	}
	items := make([]BatchSearchItem, len(req.Requests))
	var (
		specs []tapas.SearchSpec
		pos   []int // specs[j] answers items[pos[j]]
	)
	for i, r := range req.Requests {
		if err := r.Validate(); err != nil {
			items[i] = batchErrItem(err)
			continue
		}
		g, err := s.resolveGraph(r)
		if err != nil {
			items[i] = batchErrItem(err)
			continue
		}
		specs = append(specs, specForRequest(r, g))
		pos = append(pos, i)
	}
	results, err := s.eng.SearchAll(ctx, specs)
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	perSpec := make([]error, len(specs))
	for _, one := range joinedErrors(err) {
		var se *tapas.SpecError
		if errors.As(one, &se) && se.Index >= 0 && se.Index < len(perSpec) {
			// The positional index is implicit in the response array, so
			// the item carries the underlying failure, not the batch
			// wrapper (whose index would be the subset position anyway).
			perSpec[se.Index] = se.Err
		}
	}
	for j, i := range pos {
		switch {
		case results[j] != nil:
			s.obs.observeCold(results[j])
			resp, rerr := NewSearchResponse(results[j])
			if rerr != nil {
				items[i] = batchErrItem(rerr)
				continue
			}
			items[i] = BatchSearchItem{Response: resp}
		case perSpec[j] != nil:
			items[i] = batchErrItem(perSpec[j])
		default:
			items[i] = batchErrItem(fmt.Errorf("search produced no result"))
		}
	}
	return &BatchSearchResponse{SchemaVersion: SchemaVersion, Results: items}, nil
}

// batchErrItem renders one failed batch item.
func batchErrItem(err error) BatchSearchItem {
	return BatchSearchItem{Error: err.Error(), Status: ErrorStatus(err)}
}

// joinedErrors unpacks an errors.Join result into its parts (nil-safe).
func joinedErrors(err error) []error {
	if err == nil {
		return nil
	}
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return u.Unwrap()
	}
	return []error{err}
}

// NewSearchResponse renders an engine Result as the v1 wire response.
// Encoded by writeJSON, it is the byte form POST /v1/search answers with.
func NewSearchResponse(res *tapas.Result) (*SearchResponse, error) {
	resp, err := newEnvelope(res)
	if err != nil {
		return nil, err
	}
	if resp.Plan, err = NewPlan(res.Strategy); err != nil {
		return nil, err
	}
	return resp, nil
}

// newEnvelope renders every field of a Result's v1 response except the
// plan.
func newEnvelope(res *tapas.Result) (*SearchResponse, error) {
	if res.Strategy == nil {
		return nil, fmt.Errorf("service: result has no strategy")
	}
	resp := &SearchResponse{
		SchemaVersion: SchemaVersion,
		ResultSummary: res.Summary(),
		Devices: &DeviceSummary{
			Devices:           res.GPUs,
			MemBytesPerDevice: res.Strategy.MemPerDev,
			Nodes:             res.DeviceNodes,
			Collectives:       res.DeviceCollectives,
		},
	}
	return resp, nil
}

// Shutdown drains the service: new submissions fail with
// ErrShuttingDown, queued jobs are cancelled immediately, and running
// jobs are given until ctx expires to finish before their contexts are
// cancelled. It returns ctx.Err() when the drain deadline cut running
// jobs short, nil on a clean drain. Shutdown is idempotent.
//
// With a durable job store, work cancelled by the drain itself (queued
// jobs, and running jobs cut short by the deadline) keeps its
// queued/running record on disk, so the next process adopts and finishes
// it — this is what makes a rolling restart lossless. Explicitly
// cancelled and completed jobs are terminal on disk as everywhere else.
func (s *Service) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.jobs.closeIntake(func(j *job) {
		s.finishJob(j, nil, ErrShuttingDown)
	})
	done := make(chan struct{})
	go func() {
		s.jobs.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.rootCancel() // cancel in-flight job searches
		<-done
		err = ctx.Err()
	}
	if s.jobStore != nil {
		s.jobStore.Close() // drain pending record writes
	}
	return err
}
