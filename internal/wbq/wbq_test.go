package wbq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gate is an apply function whose first call parks until release, so a
// test can hold the applier busy and fill the buffer behind it.
type gate struct {
	entered chan struct{} // closed when the first apply has started
	release chan struct{}
	once    sync.Once

	mu      sync.Mutex
	applied []int
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) apply(v int) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	g.mu.Lock()
	g.applied = append(g.applied, v)
	g.mu.Unlock()
}

func (g *gate) got() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.applied...)
}

func wantSeq(t *testing.T, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("applied %d items %v, want %d", len(got), got, n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("applied %v: position %d holds %d, want FIFO 0..%d", got, i, v, n-1)
		}
	}
}

func TestTryPutDropsWhenFull(t *testing.T) {
	g := newGate()
	q := New(2, g.apply)
	if !q.TryPut(0) {
		t.Fatal("TryPut refused on an empty queue")
	}
	<-g.entered // item 0 is out of the buffer and parked in apply
	if !q.TryPut(1) || !q.TryPut(2) {
		t.Fatal("TryPut refused with buffer room left")
	}
	if q.TryPut(3) {
		t.Fatal("TryPut admitted into a full queue")
	}
	close(g.release)
	q.Flush()
	wantSeq(t, g.got(), 3) // the refused item was dropped, not deferred
	if !q.TryPut(3) {
		t.Fatal("TryPut refused after the queue drained")
	}
	q.Close()
	if got := g.got(); len(got) != 4 || got[3] != 3 {
		t.Fatalf("applied %v after Close, want 0 1 2 3", got)
	}
}

func TestPutBlocksWhileFullAndKeepsFIFO(t *testing.T) {
	g := newGate()
	q := New(1, g.apply)
	q.Put(0)
	<-g.entered
	q.Put(1) // fills the buffer

	const n = 20
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 2; i < n; i++ {
			if !q.Put(i) {
				t.Errorf("Put(%d) refused on an open queue", i)
			}
		}
	}()
	select {
	case <-sent:
		t.Fatal("Put returned with the queue full and the applier parked")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release) // the applier drains; the blocked Put proceeds
	<-sent
	q.Flush()
	wantSeq(t, g.got(), n)
	q.Close()
}

func TestFlushIsABarrierForApply(t *testing.T) {
	// The side-effect is a plain int: only the applier writes it, and
	// the test reads it after Flush — under -race this fails unless
	// Flush happens-after apply's return.
	var effects int
	q := New(8, func(int) {
		time.Sleep(100 * time.Microsecond)
		effects++
	})
	for round := 1; round <= 5; round++ {
		for i := 0; i < 8; i++ {
			q.Put(i)
		}
		q.Flush()
		if effects != round*8 {
			t.Fatalf("round %d: Flush returned with %d effects applied, want %d", round, effects, round*8)
		}
	}
	q.Close()
}

func TestCloseDrainsThenRejects(t *testing.T) {
	g := newGate()
	q := New(4, g.apply)
	for i := 0; i < 4; i++ {
		if !q.TryPut(i) {
			t.Fatalf("TryPut(%d) refused", i)
		}
	}
	closed := make(chan struct{})
	go func() { q.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with admitted items unapplied")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	<-closed
	wantSeq(t, g.got(), 4)
	if q.TryPut(9) || q.Put(9) {
		t.Fatal("a closed queue admitted an item")
	}
	q.Flush() // nothing pending: must not block
	q.Close() // idempotent
	wantSeq(t, g.got(), 4)
}

func TestConcurrentPutAndClose(t *testing.T) {
	for round := 0; round < 50; round++ {
		var applied atomic.Int64
		q := New(2, func(int) { applied.Add(1) })
		var admitted atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < 8; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					ok := false
					if p%2 == 0 {
						ok = q.Put(i)
					} else {
						ok = q.TryPut(i)
					}
					if ok {
						admitted.Add(1)
					}
				}
			}(p)
		}
		wg.Add(2)
		for c := 0; c < 2; c++ {
			go func() { defer wg.Done(); q.Close() }()
		}
		wg.Wait()
		// Both Closes have returned, so everything admitted is applied.
		if a, d := admitted.Load(), applied.Load(); a != d {
			t.Fatalf("round %d: %d admitted but %d applied", round, a, d)
		}
	}
}

func TestCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	qs := make([]*Queue[int], 16)
	for i := range qs {
		qs[i] = New(4, func(int) {})
		qs[i].Put(i)
	}
	for _, q := range qs {
		q.Close()
	}
	// Close waits for the applier's exit signal, sent by a deferred call;
	// give the runtime a moment to retire those goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after closing every queue", before, n)
	}
}
