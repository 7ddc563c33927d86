// Package wbq is the repo's one write-behind queue: a bounded FIFO
// drained by a single goroutine that hands each item to an apply
// function. The plan store's PutAsync, the durable job store's
// transition log and every replication peer's outbound fan-out are all
// instances of it; what differs between them — drop or block when full,
// what to count — stays with the caller.
//
// The contract, stated once:
//
//   - FIFO with a single applier: items are applied one at a time, in
//     admission order.
//   - TryPut never blocks: a full or closed queue refuses the item and
//     says so (the caller counts the drop). Put blocks while the queue is
//     full and refuses only a closed queue.
//   - Flush returns once every item admitted before the call has been
//     applied — apply has returned, so anything it reported or counted is
//     visible.
//   - Close applies everything already admitted, then retires the
//     applier; an admitted Put can never meet a closed channel. Later
//     puts are refused. Close is idempotent.
//
// The queue keeps no statistics. All methods are safe for concurrent use.
package wbq

import "sync"

// Queue is a bounded write-behind queue of T. Construct with New.
type Queue[T any] struct {
	apply func(T)
	items chan T
	done  chan struct{} // closed when the applier has exited

	mu      sync.Mutex
	idle    *sync.Cond // signals pending == 0
	pending int        // admitted and not yet applied (a blocked Put included)
	closed  bool
}

// New starts a queue holding up to size items and the goroutine that
// applies them.
func New[T any](size int, apply func(T)) *Queue[T] {
	q := &Queue[T]{
		apply: apply,
		items: make(chan T, size),
		done:  make(chan struct{}),
	}
	q.idle = sync.NewCond(&q.mu)
	go q.run()
	return q
}

func (q *Queue[T]) run() {
	defer close(q.done)
	for v := range q.items {
		q.apply(v)
		q.mu.Lock()
		q.pending--
		if q.pending == 0 {
			q.idle.Broadcast()
		}
		q.mu.Unlock()
	}
}

// TryPut admits v unless the queue is full or closed, and reports
// whether it did. It never blocks.
func (q *Queue[T]) TryPut(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	select {
	case q.items <- v:
		q.pending++
		return true
	default:
		return false
	}
}

// Put admits v, waiting for room while the queue is full. It reports
// false only when the queue is closed.
func (q *Queue[T]) Put(v T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.pending++
	q.mu.Unlock()
	// Close waits for pending == 0 before it closes the channel, so this
	// send always lands on an open one.
	q.items <- v
	return true
}

// Flush blocks until every admitted item has been applied.
func (q *Queue[T]) Flush() {
	q.mu.Lock()
	for q.pending > 0 {
		q.idle.Wait()
	}
	q.mu.Unlock()
}

// Close refuses further puts, waits for the admitted items to be
// applied and for the applier to exit.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		for q.pending > 0 {
			q.idle.Wait()
		}
		close(q.items)
	}
	q.mu.Unlock()
	<-q.done
}
