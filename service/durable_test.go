package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"tapas/store"
)

// Flush blocks until every queued write has been applied.
func (js *jobStore) Flush() { js.writes.Flush() }

// newJobsBackend opens a filesystem jobs namespace in a fresh temp dir.
func newJobsBackend(t *testing.T, dir string) store.Backend {
	t.Helper()
	b, err := store.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// seedRecord writes one record the way a previous process would have.
func seedRecord(t *testing.T, b store.Backend, rec *JobRecord) {
	t.Helper()
	js := newJobStore(b, nil)
	defer js.Close()
	if err := js.put(rec); err != nil {
		t.Fatal(err)
	}
}

// requireRecordMatchesStatus flushes svc's job writes and requires the
// record dir's jobs backend holds for id to encode like Status(id)
// without its progress.
func requireRecordMatchesStatus(t *testing.T, svc *Service, dir, id string) {
	t.Helper()
	svc.jobStore.Flush()
	data, err := newJobsBackend(t, dir).Get(JobRecordID(id))
	if err != nil {
		t.Fatal(err)
	}
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	st.Progress = nil
	want, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rec.JobStatus)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("record of %s (%s) differs from its status:\n got %s\nwant %s", id, st.State, got, want)
	}
}

// Two job records byte for byte as written before JobRecord embedded
// JobStatus: gpus appears only inside request.
const (
	parentDoneRecord   = `{"schema_version":1,"id":"job-000001-aaaaaaaa","request":{"model":"t5-200M","gpus":8},"model":"t5-200M","state":"done","attempts":1,"created_unix_ms":500,"started_unix_ms":600,"finished_unix_ms":700,"result":{"schema_version":1,"model":"t5-200M","gpus":8,"plan_summary":"","cost_seconds":0,"mem_bytes_per_device":0,"cache_hit":false,"store_hit":false,"report":{"iteration_seconds":0,"compute_fwd_seconds":0,"compute_bwd_seconds":0,"comm_fwd_seconds":0,"comm_bwd_seconds":0,"comm_exposed_seconds":0,"mem_bytes_per_device":0,"oom":false,"tflops_per_gpu":0},"timing":{"group_seconds":0,"mine_seconds":0,"search_seconds":0,"total_seconds":0,"classes":0,"examined":0,"pruned":0,"unique_graphs":0}}}`
	parentQueuedRecord = `{"schema_version":1,"id":"job-000002-bbbbbbbb","request":{"model":"twotower-small","gpus":4},"model":"twotower-small","state":"queued","created_unix_ms":1000}`
)

// TestRestoreParentRecords: records in the older on-disk shape still
// load. The done one comes back as history with its result, timestamps
// and the request's GPU count; the queued one is adopted and run.
func TestRestoreParentRecords(t *testing.T) {
	dir := t.TempDir()
	backend := newJobsBackend(t, dir)
	for id, data := range map[string]string{
		"job-000001-aaaaaaaa": parentDoneRecord,
		"job-000002-bbbbbbbb": parentQueuedRecord,
	} {
		if err := backend.Put(JobRecordID(id), []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := New(Config{JobsBackend: newJobsBackend(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })

	done, err := svc.Status("job-000001-aaaaaaaa")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone || done.Result == nil || done.Result.Model != "t5-200M" || done.Attempts != 1 || done.Adopted {
		t.Errorf("restored done job mangled: %+v", done)
	}
	if done.CreatedUnixMS != 500 || done.StartedUnixMS != 600 || done.FinishedUnixMS != 700 {
		t.Errorf("restored done job timestamps = %d/%d/%d, want 500/600/700", done.CreatedUnixMS, done.StartedUnixMS, done.FinishedUnixMS)
	}
	if done.GPUs != 8 {
		t.Errorf("restored done job reports gpus %d, want request.gpus 8", done.GPUs)
	}

	queued, err := svc.WaitTerminal(context.Background(), "job-000002-bbbbbbbb")
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != JobDone || !queued.Adopted || queued.GPUs != 4 || queued.Result == nil {
		t.Errorf("adopted queued job = %s (%s), adopted=%v, gpus=%d; want done, adopted, gpus 4", queued.State, queued.Error, queued.Adopted, queued.GPUs)
	}
}

func TestJobRecordID(t *testing.T) {
	id := JobRecordID("job-000001-ab12cd34")
	if len(id) != 64 {
		t.Fatalf("record id %q is not 64 hex chars", id)
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			t.Fatalf("record id %q is not lowercase hex", id)
		}
	}
	if id != JobRecordID("job-000001-ab12cd34") {
		t.Error("record id not deterministic")
	}
	if id == JobRecordID("job-000002-ab12cd34") {
		t.Error("distinct job IDs collided")
	}
}

// TestAdoptOrphanedJobs is the tentpole: a Service opened over records
// left queued/running by a dead process re-enqueues them (exactly once,
// original IDs), re-runs them to done, and leaves terminal records on
// disk; terminal records come back as poll-able history without being
// re-run.
func TestAdoptOrphanedJobs(t *testing.T) {
	dir := t.TempDir()
	backend := newJobsBackend(t, dir)

	doneResult := &SearchResponse{SchemaVersion: SchemaVersion}
	doneResult.Model = "t5-200M"
	seedRecord(t, backend, &JobRecord{
		SchemaVersion: JobRecordSchemaVersion,
		Request:       SearchRequest{Model: "t5-200M", GPUs: 8},
		JobStatus: JobStatus{
			ID:            "job-000001-aaaaaaaa",
			Model:         "t5-200M",
			State:         JobDone,
			Attempts:      1,
			CreatedUnixMS: 500, StartedUnixMS: 600, FinishedUnixMS: 700,
			Result: doneResult,
		},
	})
	seedRecord(t, backend, &JobRecord{
		SchemaVersion: JobRecordSchemaVersion,
		Request:       SearchRequest{Model: "t5-100M", GPUs: 8},
		JobStatus: JobStatus{
			ID:            "job-000002-bbbbbbbb",
			Model:         "t5-100M",
			State:         JobQueued,
			CreatedUnixMS: 1000,
		},
	})
	seedRecord(t, backend, &JobRecord{
		SchemaVersion: JobRecordSchemaVersion,
		Request:       SearchRequest{Model: "twotower-small", GPUs: 4},
		JobStatus: JobStatus{
			ID:            "job-000003-cccccccc",
			Model:         "twotower-small",
			State:         JobRunning,
			Attempts:      1,
			CreatedUnixMS: 2000, StartedUnixMS: 2100,
		},
	})

	svc, err := New(Config{JobsBackend: newJobsBackend(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })

	if svc.Stats().JobsAdopted != 2 {
		t.Fatalf("JobsAdopted = %d, want 2 (queued + running orphans)", svc.Stats().JobsAdopted)
	}

	// The done record is history, not work: state, result and timestamps
	// survive, and nothing re-runs it.
	done, err := svc.Status("job-000001-aaaaaaaa")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone || done.Result == nil || done.FinishedUnixMS != 700 {
		t.Errorf("restored done job mangled: %+v", done)
	}
	if done.Attempts != 1 || done.Adopted {
		t.Errorf("restored done job must keep attempts=1, adopted=false: %+v", done)
	}
	if _, err := svc.Result("job-000001-aaaaaaaa"); err != nil {
		t.Errorf("Result on restored done job: %v", err)
	}

	// The orphans re-run to done under their original IDs, marked
	// adopted, attempts bumped by exactly the one new run.
	for id, wantAttempts := range map[string]int{
		"job-000002-bbbbbbbb": 1, // was queued, never started before
		"job-000003-cccccccc": 2, // was mid-run when the process died
	} {
		st, err := svc.WaitTerminal(context.Background(), id)
		if err != nil {
			t.Fatalf("WaitTerminal(%s): %v", id, err)
		}
		if st.State != JobDone {
			t.Errorf("adopted job %s = %s (%s), want done", id, st.State, st.Error)
		}
		if !st.Adopted {
			t.Errorf("adopted job %s not marked adopted", id)
		}
		if st.Attempts != wantAttempts {
			t.Errorf("adopted job %s attempts = %d, want %d", id, st.Attempts, wantAttempts)
		}
		requireRecordMatchesStatus(t, svc, dir, id)
	}

	// Stats surface the adoption and the durable machinery.
	stats := svc.Stats()
	if !stats.JobsDurable || stats.JobsAdopted != 2 || stats.JobStore == nil {
		t.Errorf("stats missing durability fields: %+v", stats)
	}
	if stats.JobStore.Records != 3 {
		t.Errorf("JobStore.Records = %d, want 3", stats.JobStore.Records)
	}

	// IDs minted after a restart never collide with adopted ones.
	st, err := svc.Submit(context.Background(), SearchRequest{Model: "twotower-small", GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.ID, "job-000004") {
		t.Errorf("post-adoption ID %q does not continue the sequence", st.ID)
	}
	if _, err := svc.WaitTerminal(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}

	// After a clean shutdown every record on disk is terminal: a third
	// process adopts nothing.
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc2, err := New(Config{JobsBackend: newJobsBackend(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc2.Shutdown(context.Background()) })
	if svc2.Stats().JobsAdopted != 0 {
		t.Errorf("second restart adopted %d jobs, want 0 — adoption must be once, not per restart", svc2.Stats().JobsAdopted)
	}
	for _, id := range []string{"job-000002-bbbbbbbb", "job-000003-cccccccc", st.ID} {
		got, err := svc2.Status(id)
		if err != nil {
			t.Fatalf("Status(%s) after second restart: %v", id, err)
		}
		if got.State != JobDone {
			t.Errorf("job %s after second restart = %s, want done", id, got.State)
		}
	}
}

// TestSubmitPersistsAcrossRestart covers the write path end to end: a
// normally submitted and finished job is poll-able, result included,
// from a fresh Service over the same backend.
func TestSubmitPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{JobsBackend: newJobsBackend(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Submit(context.Background(), SearchRequest{Model: "twotower-small", GPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.WaitTerminal(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	// The record is the status, in the process that wrote it and in the
	// one that restores it.
	requireRecordMatchesStatus(t, svc, dir, st.ID)
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(Config{JobsBackend: newJobsBackend(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc2.Shutdown(context.Background()) })
	if svc2.Stats().JobsAdopted != 0 {
		t.Errorf("adopted %d, want 0: the job finished before the restart", svc2.Stats().JobsAdopted)
	}
	got, err := svc2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobDone || got.Result == nil || got.Result.Plan == nil {
		t.Errorf("restarted status incomplete: %+v", got)
	}
	requireRecordMatchesStatus(t, svc2, dir, st.ID)
}

// TestDrainKeepsOrphansAdoptable is the kill-path semantics through the
// graceful API: a shutdown that cuts work short must leave the cut jobs
// queued/running on disk so the next process finishes them — while an
// explicit client cancel stays cancelled forever.
func TestDrainKeepsOrphansAdoptable(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{JobsBackend: newJobsBackend(t, dir), JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// One worker: the first job runs, the rest stay queued.
	running, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-770M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-100M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-200M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(cancelled.ID); err != nil {
		t.Fatal(err)
	}

	// Drain with an expired deadline: the running job is cut mid-search,
	// the queued one is drained — neither may be persisted terminal.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}

	svc2, err := New(Config{JobsBackend: newJobsBackend(t, dir), JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc2.Shutdown(context.Background()) })

	// The running job may have squeaked through to done before the
	// deadline; the queued one can only be adopted. Either way every
	// accepted job reaches done, exactly once, and the client cancel
	// stays cancelled.
	if svc2.Stats().JobsAdopted < 1 {
		t.Fatalf("JobsAdopted = %d, want ≥ 1 (at least the queued orphan)", svc2.Stats().JobsAdopted)
	}
	for _, id := range []string{running.ID, queued.ID} {
		st, err := svc2.WaitTerminal(context.Background(), id)
		if err != nil {
			t.Fatalf("WaitTerminal(%s): %v", id, err)
		}
		if st.State != JobDone {
			t.Errorf("job %s after restart = %s (%s), want done", id, st.State, st.Error)
		}
	}
	st, err := svc2.Status(cancelled.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCancelled {
		t.Errorf("client-cancelled job resurrected as %s after restart", st.State)
	}
}

// TestAdoptionSkipsCorruptAndForeignRecords: junk in the namespace is
// skipped and counted, never adopted and never fatal.
func TestAdoptionSkipsCorruptAndForeignRecords(t *testing.T) {
	dir := t.TempDir()
	backend := newJobsBackend(t, dir)

	seedRecord(t, backend, &JobRecord{
		SchemaVersion: JobRecordSchemaVersion,
		Request:       SearchRequest{Model: "twotower-small", GPUs: 4},
		JobStatus: JobStatus{
			ID:            "job-000001-aaaaaaaa",
			Model:         "twotower-small",
			State:         JobQueued,
			CreatedUnixMS: 1000,
		},
	})
	// Not JSON at all.
	if err := backend.Put(JobRecordID("job-junk"), []byte("{nope")); err != nil {
		t.Fatal(err)
	}
	// Valid JSON whose ID does not hash to the record id (e.g. a blob
	// copied from another namespace).
	if err := backend.Put(JobRecordID("job-misfiled"), []byte(`{"schema_version":1,"id":"job-000099-deadbeef","state":"queued"}`)); err != nil {
		t.Fatal(err)
	}
	// A future schema version must be left alone, not destroyed.
	if err := backend.Put(JobRecordID("job-future"), []byte(`{"schema_version":99,"id":"job-future"}`)); err != nil {
		t.Fatal(err)
	}

	var corrupt int
	svc, err := New(Config{
		JobsBackend:  newJobsBackend(t, dir),
		OnJobCorrupt: func(string, error) { corrupt++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })

	if svc.Stats().JobsAdopted != 1 {
		t.Errorf("JobsAdopted = %d, want 1 (only the valid record)", svc.Stats().JobsAdopted)
	}
	if corrupt != 3 {
		t.Errorf("corrupt callback fired %d times, want 3", corrupt)
	}
	if st := svc.Stats(); st.JobStore.Corrupt != 3 {
		t.Errorf("JobStore.Corrupt = %d, want 3", st.JobStore.Corrupt)
	}
	if _, err := svc.WaitTerminal(context.Background(), "job-000001-aaaaaaaa"); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptionFailsUnresolvableRequest: a record whose model no longer
// exists in this binary fails cleanly instead of crashing a worker.
func TestAdoptionFailsUnresolvableRequest(t *testing.T) {
	dir := t.TempDir()
	seedRecord(t, newJobsBackend(t, dir), &JobRecord{
		SchemaVersion: JobRecordSchemaVersion,
		Request:       SearchRequest{Model: "model-that-never-existed", GPUs: 8},
		JobStatus: JobStatus{
			ID:            "job-000001-aaaaaaaa",
			Model:         "model-that-never-existed",
			State:         JobRunning,
			Attempts:      1,
			CreatedUnixMS: 1000,
		},
	})
	svc, err := New(Config{JobsBackend: newJobsBackend(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	if svc.Stats().JobsAdopted != 0 {
		t.Errorf("JobsAdopted = %d, want 0", svc.Stats().JobsAdopted)
	}
	st, err := svc.Status("job-000001-aaaaaaaa")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "adoption failed") {
		t.Errorf("unresolvable orphan = %s (%s), want failed with adoption error", st.State, st.Error)
	}
}

// TestEvictOnCompletion is the idle-retention bugfix: terminal jobs
// beyond MaxFinished are evicted when they finish, not only at the next
// Submit — and with a durable store their records go too.
func TestEvictOnCompletion(t *testing.T) {
	dir := t.TempDir()
	backend := newJobsBackend(t, dir)
	svc, err := New(Config{JobsBackend: backend, MaxFinished: 1, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })

	var ids []string
	for i := 0; i < 3; i++ {
		st, err := svc.Submit(context.Background(), SearchRequest{Model: "twotower-small", GPUs: 4})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		if _, err := svc.WaitTerminal(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	// No further submits: the bug was that eviction only ran inside
	// enqueue, so an idle daemon held every payload forever.
	if st := svc.Stats(); st.Finished != 1 {
		t.Errorf("idle daemon retains %d finished jobs, want 1 (MaxFinished)", st.Finished)
	}
	if _, err := svc.Status(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("evicted job still resolvable: %v", err)
	}
	if _, err := svc.Status(ids[2]); err != nil {
		t.Errorf("newest finished job must survive retention: %v", err)
	}

	// Eviction deletes durable records too (FIFO after the persists).
	svc.jobStore.Flush()
	ents, err := backend.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].ID != JobRecordID(ids[2]) {
		t.Errorf("durable namespace after eviction: %d records, want only %s", len(ents), ids[2])
	}
}

// TestJobProgressIsolation is the progress-routing bugfix: two
// concurrent jobs over the same (model, gpus) must each see only their
// own search's events. The folded and exhaustive pipelines emit
// distinguishable phases — folding runs "mine", exhaustive never does —
// so cross-talk is observable as a mine event on the exhaustive stream.
func TestJobProgressIsolation(t *testing.T) {
	svc := mustNew(t, Config{JobWorkers: 2})
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })

	folded, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-770M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-770M", GPUs: 8, Exhaustive: true, TimeBudgetMS: 3000})
	if err != nil {
		t.Fatal(err)
	}
	chF, cancelF, err := svc.Subscribe(folded.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelF()
	chE, cancelE, err := svc.Subscribe(exhaustive.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelE()

	foldedEvents := drainEvents(t, chF, 60*time.Second)
	exhaustiveEvents := drainEvents(t, chE, 60*time.Second)

	var foldedMine bool
	for _, ev := range foldedEvents {
		if ev.JobID != folded.ID {
			t.Fatalf("folded stream carries job %s", ev.JobID)
		}
		if ev.Type == EventProgress && ev.Phase == "mine" {
			foldedMine = true
		}
	}
	if !foldedMine {
		t.Error("folded job emitted no mine events — the cross-talk signal is gone, fix the test")
	}
	for _, ev := range exhaustiveEvents {
		if ev.JobID != exhaustive.ID {
			t.Fatalf("exhaustive stream carries job %s", ev.JobID)
		}
		if ev.Type == EventProgress && ev.Phase == "mine" {
			t.Fatalf("exhaustive job received a folded search's mine event: %+v — progress is leaking across jobs", ev)
		}
	}
}
