package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"tapas"
	"tapas/internal/graph"
	"tapas/internal/trace"
)

// job is one queued search and its fan-out state.
type job struct {
	req    SearchRequest
	graph  *graph.Graph // parsed inline spec (nil: registered model)
	ctx    context.Context
	cancel context.CancelFunc

	mu sync.Mutex
	// st is the job's whole lifecycle state in wire form: every
	// transition writes it, and the status, the durable record and the
	// state events all read it. st.ID and st.Model never change once the
	// job is published. st.Progress is replaced, never mutated, because
	// status() hands out copies that share the pointer.
	st        JobStatus
	cancelled bool // explicit client Cancel (vs a shutdown drain)
	// traceID/parentID carry the submitter's trace onto the worker that
	// eventually runs the job, so an async search's spans land in the
	// same trace as its POST /v1/jobs. In-memory only: an adopted job's
	// submitter is long gone.
	traceID  string
	parentID string
	// subs holds the live event streams; nil once the job's streams are
	// retired (or for a job restored already terminal).
	subs    map[int]chan JobEvent
	nextSub int
}

// status snapshots the job in wire form.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.st
	return &st
}

// record snapshots the job in durable form: its status without the
// live progress.
func (j *job) record() *JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := &JobRecord{SchemaVersion: JobRecordSchemaVersion, Request: j.req, JobStatus: j.st}
	rec.Progress = nil
	return rec
}

// stateEventLocked renders the job's current state as a stream event.
// Callers must hold j.mu.
func (j *job) stateEventLocked() JobEvent {
	return JobEvent{JobID: j.st.ID, Type: EventState, State: j.st.State, Error: j.st.Error}
}

// broadcastLocked delivers one event to every subscriber without
// blocking: a slow consumer drops events rather than stalling the
// search. Callers must hold j.mu — every send and every channel close
// happens under the job lock, which is what makes the close in
// closeSubs safe against concurrent sends.
func (j *job) broadcastLocked(ev JobEvent) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// closeSubs retires every subscriber. It runs last on the terminal
// path — after the terminal event, the durable record write and the
// retention pass — so whoever the close wakes (WaitTerminal, an SSE
// stream) finds every side-effect of the transition already applied.
// Holding j.mu excludes in-flight sends, so the closes cannot race a
// broadcast.
func (j *job) closeSubs() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// noteProgress records and fans out one engine progress event. It is the
// job's SearchSpec.Progress callback, so it observes exactly this job's
// search — a concurrent job for the same model and GPU count has its own
// callback and never sees these events.
func (j *job) noteProgress(ev tapas.ProgressEvent) {
	jev := JobEvent{
		JobID:        j.st.ID,
		Type:         EventProgress,
		Phase:        string(ev.Phase),
		Kind:         ev.Kind.String(),
		ClassesDone:  ev.ClassesDone,
		ClassesTotal: ev.ClassesTotal,
		Examined:     ev.Examined,
		ElapsedMS:    ev.Elapsed.Milliseconds(),
	}
	j.mu.Lock()
	if j.st.State == JobRunning { // progress is reported on running jobs only
		j.st.Progress = &JobProgress{
			Phase:        jev.Phase,
			ClassesDone:  jev.ClassesDone,
			ClassesTotal: jev.ClassesTotal,
			Examined:     jev.Examined,
			ElapsedMS:    jev.ElapsedMS,
		}
	}
	j.broadcastLocked(jev)
	j.mu.Unlock()
}

// jobTable owns the queue and the ID index.
type jobTable struct {
	mu          sync.Mutex
	byID        map[string]*job
	order       []string // submission order, for bounded retention
	queue       chan *job
	closed      bool
	maxFinished int
	seq         uint64

	wg sync.WaitGroup // job workers
}

func newJobTable(queueSize, maxFinished int) *jobTable {
	return &jobTable{
		byID:        make(map[string]*job),
		queue:       make(chan *job, queueSize),
		maxFinished: maxFinished,
	}
}

// newID mints "job-<seq>-<random>": ordered for humans, unguessable
// enough that one client cannot trivially walk another's job IDs.
func (t *jobTable) newID() string {
	t.seq++
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back
		// to the ordered prefix alone rather than crashing the server.
		return fmt.Sprintf("job-%06d", t.seq)
	}
	return fmt.Sprintf("job-%06d-%s", t.seq, hex.EncodeToString(b[:]))
}

// noteSeq advances the ID sequence past an adopted job's ordinal, so
// jobs minted after a restart never collide with adopted ones.
func (t *jobTable) noteSeq(id string) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return
	}
	if i := strings.IndexByte(rest, '-'); i >= 0 {
		rest = rest[:i]
	}
	if n, err := strconv.ParseUint(rest, 10, 64); err == nil && n > t.seq {
		t.seq = n
	}
}

// enqueue registers and queues a job, enforcing intake state, queue
// bounds and finished-job retention. Returns the IDs evicted by
// retention so the caller can drop their durable records.
func (t *jobTable) enqueue(j *job) ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrShuttingDown
	}
	select {
	case t.queue <- j:
	default:
		return nil, ErrQueueFull
	}
	t.byID[j.st.ID] = j
	t.order = append(t.order, j.st.ID)
	return t.evictLocked(), nil
}

// evict applies finished-job retention outside a submission — called on
// every job completion, so an idle daemon does not retain terminal jobs
// (and their full result payloads) until the next Submit.
func (t *jobTable) evict() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evictLocked()
}

// evictLocked drops the oldest terminal jobs beyond the retention cap,
// returning the evicted IDs.
func (t *jobTable) evictLocked() []string {
	var terminal int
	for _, id := range t.order {
		if j := t.byID[id]; j != nil && j.terminal() {
			terminal++
		}
	}
	if terminal <= t.maxFinished {
		return nil
	}
	var removed []string
	kept := t.order[:0]
	for _, id := range t.order {
		j := t.byID[id]
		if terminal > t.maxFinished && j != nil && j.terminal() {
			delete(t.byID, id)
			removed = append(removed, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	t.order = kept
	return removed
}

// terminal reports whether the job reached a final state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.State.Terminal()
}

// lookup resolves a job ID.
func (t *jobTable) lookup(id string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// counts tallies job states for health reporting.
func (t *jobTable) counts() (queued, running, finished int, draining bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, j := range t.byID {
		j.mu.Lock()
		switch {
		case j.st.State == JobQueued:
			queued++
		case j.st.State == JobRunning:
			running++
		case j.st.State.Terminal():
			finished++
		}
		j.mu.Unlock()
	}
	return queued, running, finished, t.closed
}

// closeIntake stops accepting submissions and hands every still-queued
// job to onQueued (which cancels it). Idempotent. Closing the queue
// channel retires the workers after their current job.
func (t *jobTable) closeIntake(onQueued func(*job)) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	var drained []*job
	for {
		select {
		case j := <-t.queue:
			drained = append(drained, j)
			continue
		default:
		}
		break
	}
	close(t.queue)
	t.mu.Unlock()
	for _, j := range drained {
		onQueued(j)
	}
}

// ---------------------------------------------------------------------------
// Service methods

// Submit validates and enqueues an async search, returning its queued
// status. ctx is the submitter's request context — consulted only for
// its trace identity (the job itself runs under the service's root
// context). Fails fast with a BadRequestError for malformed requests,
// ErrQueueFull when the bounded queue is at capacity, and
// ErrShuttingDown once Shutdown has begun. With a durable job store
// configured, the job's record is queued for persistence before the
// job becomes runnable, so the write-behind FIFO can never apply a later
// transition before the submission record.
func (s *Service) Submit(ctx context.Context, req SearchRequest) (*JobStatus, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	g, err := s.resolveGraph(req)
	if err != nil {
		return nil, err
	}
	// The job's model identity: the registered name, or the parsed
	// graph's name for inline specs.
	model := req.Model
	if g != nil {
		model = g.Name
	}
	jctx, jcancel := context.WithCancel(s.rootCtx)
	span := trace.FromContext(ctx)
	j := &job{
		req:      req,
		graph:    g,
		ctx:      jctx,
		cancel:   jcancel,
		st:       JobStatus{State: JobQueued, Model: model, GPUs: req.GPUs, CreatedUnixMS: time.Now().UnixMilli()},
		subs:     make(map[int]chan JobEvent),
		traceID:  span.TraceID(),
		parentID: span.ID(),
	}
	s.jobs.mu.Lock()
	j.st.ID = s.jobs.newID()
	s.jobs.mu.Unlock()
	s.persistJob(j)
	st := j.status() // as accepted: a worker may start it once it is queued
	removed, err := s.jobs.enqueue(j)
	if err != nil {
		jcancel()
		s.dropRecord(j.st.ID) // rejected: retract the submission record
		return nil, err
	}
	s.dropRecords(removed)
	return st, nil
}

// Status reports one job.
func (s *Service) Status(id string) (*JobStatus, error) {
	j := s.jobs.lookup(id)
	if j == nil {
		return nil, ErrNotFound
	}
	return j.status(), nil
}

// Jobs lists every retained job in submission order.
func (s *Service) Jobs() []*JobStatus {
	s.jobs.mu.Lock()
	ids := append([]string(nil), s.jobs.order...)
	table := s.jobs.byID
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := table[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.jobs.mu.Unlock()
	out := make([]*JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Result returns a finished job's response: the SearchResponse for a
// done job, or an error describing why none exists (not found, still
// pending, failed, cancelled).
func (s *Service) Result(id string) (*SearchResponse, error) {
	j := s.jobs.lookup(id)
	if j == nil {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.st.State {
	case JobDone:
		return j.st.Result, nil
	case JobFailed:
		return nil, fmt.Errorf("service: job %s failed: %s", id, j.st.Error)
	case JobCancelled:
		return nil, fmt.Errorf("service: job %s cancelled", id)
	default:
		return nil, fmt.Errorf("service: job %s is %s", id, j.st.State)
	}
}

// Cancel requests cancellation: a queued job is cancelled immediately, a
// running job's search context is cancelled (the job transitions once
// the pipeline unwinds), and a terminal job is left unchanged. The
// returned status is the state observed after the request.
func (s *Service) Cancel(id string) (*JobStatus, error) {
	j := s.jobs.lookup(id)
	if j == nil {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	switch {
	case j.st.State == JobQueued:
		j.st.State, j.st.Error = JobCancelled, "cancelled by client"
		j.st.FinishedUnixMS = time.Now().UnixMilli()
		j.cancelled = true
		j.broadcastLocked(j.stateEventLocked())
		j.mu.Unlock()
		j.cancel()
		s.persistJob(j)
		s.dropRecords(s.jobs.evict())
		j.closeSubs()
	case j.st.State == JobRunning:
		j.cancelled = true
		j.mu.Unlock()
		j.cancel()
	default:
		j.mu.Unlock()
	}
	return j.status(), nil
}

// Subscribe attaches to a job's event stream. The returned channel
// first carries a state snapshot, then live progress and state events;
// it is closed by the service after the terminal state event (or by the
// returned cancel function). The cancel function is safe to call
// multiple times and after the stream ends.
func (s *Service) Subscribe(id string) (<-chan JobEvent, func(), error) {
	j := s.jobs.lookup(id)
	if j == nil {
		return nil, nil, ErrNotFound
	}
	ch := make(chan JobEvent, 64)
	j.mu.Lock()
	snapshot := j.stateEventLocked()
	if j.subs == nil { // terminal, and its side-effects applied
		j.mu.Unlock()
		ch <- snapshot
		close(ch)
		return ch, func() {}, nil
	}
	subID := j.nextSub
	j.nextSub++
	j.subs[subID] = ch
	ch <- snapshot // fresh buffered channel; cannot block. Sent under
	// j.mu so finishJob cannot close ch between registration and the
	// snapshot send.
	j.mu.Unlock()
	cancel := func() {
		// Detach only — the terminal path (closeSubs) is the one
		// place channels are closed, and it cannot see a detached
		// channel. A detached channel is simply abandoned to the GC;
		// closing it here would race nothing today (all sends hold
		// j.mu) but buys nothing either.
		j.mu.Lock()
		delete(j.subs, subID)
		j.mu.Unlock()
	}
	return ch, cancel, nil
}

// WaitTerminal blocks until the job reaches a terminal state (or ctx
// ends), returning its final status. It rides the event stream rather
// than polling.
func (s *Service) WaitTerminal(ctx context.Context, id string) (*JobStatus, error) {
	ch, cancel, err := s.Subscribe(id)
	if err != nil {
		return nil, err
	}
	defer cancel()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case _, ok := <-ch:
			if !ok { // stream closed: the job is terminal
				return s.Status(id)
			}
		}
	}
}

// persistJob queues the job's current durable form (no-op without a job
// store).
func (s *Service) persistJob(j *job) {
	if s.jobStore == nil {
		return
	}
	s.jobStore.putAsync(j.record())
}

// dropRecord / dropRecords queue durable-record deletions for jobs
// evicted from the table (no-op without a job store).
func (s *Service) dropRecord(id string) {
	if s.jobStore == nil {
		return
	}
	s.jobStore.deleteAsync(id)
}

func (s *Service) dropRecords(ids []string) {
	if s.jobStore == nil {
		return
	}
	for _, id := range ids {
		s.jobStore.deleteAsync(id)
	}
}

// worker drains the job queue until closeIntake closes it.
func (s *Service) worker() {
	defer s.jobs.wg.Done()
	for j := range s.jobs.queue {
		s.runJob(j)
	}
}

// runJob drives one job through running to a terminal state.
func (s *Service) runJob(j *job) {
	j.mu.Lock()
	if j.st.State != JobQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.st.State = JobRunning
	j.st.StartedUnixMS = time.Now().UnixMilli()
	j.st.Attempts++
	j.broadcastLocked(j.stateEventLocked())
	j.mu.Unlock()
	s.persistJob(j)

	// The job's lifecycle span continues the submitter's trace (when the
	// submission was traced): the root of everything this worker does.
	ctx := j.ctx
	var span *trace.Span
	if j.traceID != "" {
		ctx, span = s.obs.rec.StartRequest(j.ctx, "job.run", j.traceID, j.parentID)
		span.SetAttr("job", j.st.ID)
		span.SetAttr("model", j.st.Model)
	}
	var resp *SearchResponse
	res, err := s.search(ctx, j.req, j.graph, j.noteProgress)
	if err == nil {
		resp, err = NewSearchResponse(res)
	}
	s.finishJob(j, resp, err)
	if span != nil {
		span.SetError(err)
		j.mu.Lock()
		span.SetAttr("state", string(j.st.State))
		j.mu.Unlock()
		span.End()
	}
}

// finishJob moves a job to its terminal state and retires its
// subscribers. Cancellation (explicit Cancel, or the shutdown drain) is
// distinguished from genuine failure by the error chain.
func (s *Service) finishJob(j *job, resp *SearchResponse, err error) {
	j.mu.Lock()
	if j.st.State.Terminal() { // e.g. cancelled-while-queued racing shutdown
		j.mu.Unlock()
		j.cancel()
		return
	}
	switch {
	case err == nil:
		j.st.State, j.st.Result = JobDone, resp
	case errors.Is(err, context.Canceled), errors.Is(err, ErrShuttingDown):
		j.st.State, j.st.Error = JobCancelled, err.Error()
	default:
		j.st.State, j.st.Error = JobFailed, err.Error()
	}
	drainCut := j.st.State == JobCancelled && !j.cancelled && s.draining.Load()
	j.st.Progress = nil
	j.st.FinishedUnixMS = time.Now().UnixMilli()
	j.broadcastLocked(j.stateEventLocked())
	j.mu.Unlock()
	j.cancel() // release the context's resources
	if !drainCut {
		// A job cut short by the shutdown drain is deliberately NOT
		// persisted as cancelled: its record still says queued/running,
		// so the next process adopts and re-runs it. Everything else —
		// done, failed, explicit client cancel — is terminal on disk too.
		s.persistJob(j)
	}
	s.dropRecords(s.jobs.evict())
	j.closeSubs()
}
