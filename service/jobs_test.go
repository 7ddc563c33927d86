package service

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"
)

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// drainEvents collects a job's events until the stream closes or the
// timeout passes.
func drainEvents(t *testing.T, ch <-chan JobEvent, timeout time.Duration) []JobEvent {
	t.Helper()
	var out []JobEvent
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("event stream did not close within %v (got %d events)", timeout, len(out))
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	svc := newTestService(t)
	st, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-100M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued || st.ID == "" || st.Model != "t5-100M" {
		t.Fatalf("bad initial status: %+v", st)
	}

	ch, cancel, err := svc.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	events := drainEvents(t, ch, 30*time.Second)

	var sawRunningOrQueued, sawProgress bool
	final := events[len(events)-1]
	for _, ev := range events {
		if ev.JobID != st.ID {
			t.Errorf("event for wrong job: %+v", ev)
		}
		switch ev.Type {
		case EventState:
			if ev.State == JobQueued || ev.State == JobRunning {
				sawRunningOrQueued = true
			}
		case EventProgress:
			sawProgress = true
			if ev.Phase == "" {
				t.Errorf("progress event without phase: %+v", ev)
			}
		}
	}
	if !sawRunningOrQueued {
		t.Error("stream carried no pre-terminal state event")
	}
	if !sawProgress {
		t.Error("cold search must stream at least one progress event")
	}
	if final.Type != EventState || final.State != JobDone {
		t.Fatalf("final event = %+v, want done state", final)
	}

	resp, err := svc.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != "t5-100M" || resp.Plan == nil {
		t.Errorf("job result incomplete: %+v", resp)
	}
	got, err := svc.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobDone || got.Result == nil || got.FinishedUnixMS == 0 {
		t.Errorf("done status incomplete: %+v", got)
	}
}

func TestJobUnknownID(t *testing.T) {
	svc := newTestService(t)
	if _, err := svc.Status("job-zzz"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Status: want ErrNotFound, got %v", err)
	}
	if _, err := svc.Result("job-zzz"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Result: want ErrNotFound, got %v", err)
	}
	if _, err := svc.Cancel("job-zzz"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel: want ErrNotFound, got %v", err)
	}
	if _, _, err := svc.Subscribe("job-zzz"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Subscribe: want ErrNotFound, got %v", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	svc := mustNew(t, Config{JobWorkers: 1})
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })

	// One worker: the blocker occupies it, the target stays queued.
	blocker, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-770M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	target, err := svc.Submit(context.Background(), SearchRequest{Model: "bert-large", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Cancel(target.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCancelled {
		t.Fatalf("cancelled queued job reports %s", st.State)
	}
	// The worker must skip it: state stays cancelled after the queue
	// drains.
	if _, err := svc.WaitTerminal(context.Background(), blocker.ID); err != nil {
		t.Fatal(err)
	}
	st, err = svc.Status(target.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCancelled {
		t.Errorf("worker resurrected a cancelled job: %s", st.State)
	}
	if st.Result != nil {
		t.Error("cancelled job must not carry a result")
	}
}

func TestCancelRunningJob(t *testing.T) {
	svc := mustNew(t, Config{JobWorkers: 1})
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })

	st, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-1.4B", GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := svc.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == JobRunning {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before it could be cancelled: %s", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := svc.WaitTerminal(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobCancelled {
		t.Errorf("cancelled running job reports %s (err=%q)", final.State, final.Error)
	}
}

func TestQueueFull(t *testing.T) {
	svc := mustNew(t, Config{JobWorkers: 1, QueueSize: 2})
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })

	// Saturate: 1 worker draining slowly, queue of 2. Submitting a
	// burst must eventually bounce with ErrQueueFull.
	var sawFull bool
	for i := 0; i < 20 && !sawFull; i++ {
		_, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-770M", GPUs: 8})
		switch {
		case err == nil:
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		default:
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Error("a 20-job burst against a queue of 2 never hit ErrQueueFull")
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	svc := mustNew(t, Config{JobWorkers: 1})
	before := runtime.NumGoroutine()

	running, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-100M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(context.Background(), SearchRequest{Model: "bert-large", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	// Second shutdown is a no-op.
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Errorf("repeated shutdown: %v", err)
	}
	if _, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-100M", GPUs: 8}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown submit: want ErrShuttingDown, got %v", err)
	}
	if _, err := svc.Search(context.Background(), SearchRequest{Model: "t5-100M", GPUs: 8}); err != nil {
		// Sync search still works after Shutdown — the engine is
		// stateless; only the job intake closes. Document by assertion.
		t.Errorf("sync search after shutdown should still work, got %v", err)
	}

	// The running job either finished or was drained; the queued one
	// must be cancelled, not lost.
	rst, err := svc.Status(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !rst.State.Terminal() {
		t.Errorf("running job not terminal after drain: %s", rst.State)
	}
	qst, err := svc.Status(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qst.State != JobCancelled && qst.State != JobDone {
		t.Errorf("queued job after drain: %s, want cancelled (or done if the worker won the race)", qst.State)
	}

	// No goroutine leaks: workers exited, no stray fan-out goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d → %d across service lifecycle", before, after)
	}
}

func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	svc := mustNew(t, Config{JobWorkers: 1})
	st, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-1.4B", GPUs: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to pick it up, then drain with an
	// already-expired deadline: the job must be cancelled, not awaited.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := svc.Status(st.ID)
		if cur != nil && cur.State != JobQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never left the queue")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err = svc.Shutdown(ctx)
	final, serr := svc.Status(st.ID)
	if serr != nil {
		t.Fatal(serr)
	}
	if !final.State.Terminal() {
		t.Fatalf("job not terminal after forced shutdown: %s", final.State)
	}
	// A job cut off mid-search reports cancelled; one that squeaked
	// through reports done — both are valid, but if it was cut off the
	// drain must have reported the deadline.
	if final.State == JobCancelled && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("forced drain returned %v, want DeadlineExceeded", err)
	}
}

func TestStatsCounts(t *testing.T) {
	svc := newTestService(t)
	if _, err := svc.Search(context.Background(), SearchRequest{Model: "twotower-small", GPUs: 4}); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Submit(context.Background(), SearchRequest{Model: "t5-100M", GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.WaitTerminal(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	stats := svc.Stats()
	if stats.Finished != 1 {
		t.Errorf("finished = %d, want 1", stats.Finished)
	}
	if stats.QueueCapacity != defaultQueueSize || stats.JobWorkers != defaultJobWorkers {
		t.Errorf("capacity fields wrong: %+v", stats)
	}
	if stats.Cache.Misses == 0 {
		t.Errorf("cache stats empty: %+v", stats.Cache)
	}
	if stats.Draining {
		t.Error("service reports draining before shutdown")
	}
	list := svc.Jobs()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("job list wrong: %s", mustJSON(t, list))
	}
}
