// Package trace is a zero-dependency distributed-tracing subsystem for
// the tapas fleet: a span tree carried on context.Context inside one
// process, propagated across processes as X-Tapas-Trace/X-Tapas-Parent
// headers, and recorded per-process in a bounded in-memory ring buffer
// served as /v1/traces (the "flight recorder").
//
// The API is nil-safe end to end: every Span method works on a nil
// receiver, and StartSpan on a context with no active span returns
// (ctx, nil). Code paths that are not being traced therefore pay one
// context value lookup and nothing else — no allocation, no lock — so
// instrumentation can stay unconditionally in place on hot paths.
//
// Spans never influence results: tracing is excluded from every cache
// key and the recorder drops data (never blocks) when full.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// TraceHeader and ParentHeader carry the trace across process
// boundaries: TraceHeader is the 16-hex trace ID shared by every span
// of one request, ParentHeader the 16-hex span ID of the caller's
// active span, which becomes the parent of the callee's root span.
const (
	TraceHeader  = "X-Tapas-Trace"
	ParentHeader = "X-Tapas-Parent"
)

// Span is one timed operation in a trace. Spans are created with
// Recorder.StartRequest (process roots) or StartSpan (children) and
// reported to their recorder by End. All methods are safe on a nil
// receiver and safe for concurrent use.
type Span struct {
	rec      *Recorder
	traceID  string
	id       string
	parentID string
	name     string
	start    time.Time

	mu    sync.Mutex
	attrs map[string]string
	err   string
	ended bool
}

// TraceID returns the trace ID shared by all spans of the request, or
// "" on a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// ID returns the span's own ID, or "" on a nil span.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// SetAttr attaches a key=value annotation to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SetError marks the span failed. A nil error is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// End finishes the span and hands it to the recorder. Second and later
// calls are no-ops, so End is safe in deferred cleanup paths that may
// race an explicit End.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	errMsg := s.err
	s.mu.Unlock()

	s.rec.record(SpanData{
		TraceID:  s.traceID,
		SpanID:   s.id,
		ParentID: s.parentID,
		Name:     s.name,
		Process:  s.rec.process,
		Start:    s.start.UnixNano(),
		Duration: time.Since(s.start).Microseconds(),
		Attrs:    attrs,
		Error:    errMsg,
	})
}

// ctxKey carries the active *Span on a context.
type ctxKey struct{}

// FromContext returns the active span, or nil when the request is not
// being traced.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's active span and returns a
// context carrying it. When the context has no active span it returns
// (ctx, nil) — the untraced fast path — and every method of the nil
// span is a no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{
		rec:      parent.rec,
		traceID:  parent.traceID,
		id:       newID(),
		parentID: parent.id,
		name:     name,
		start:    time.Now(),
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// Record emits an already-completed child span of the context's active
// span — for durations measured out of band (the engine's enum/assemble
// split, cache-lookup timings) where wrapping the code in StartSpan/End
// is impossible or not worth restructuring. attrs are key, value pairs;
// a trailing odd key is ignored. No-op when the request is untraced.
func Record(ctx context.Context, name string, start time.Time, d time.Duration, attrs ...string) {
	parent := FromContext(ctx)
	if parent == nil {
		return
	}
	var m map[string]string
	if len(attrs) >= 2 {
		m = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
		}
	}
	parent.rec.record(SpanData{
		TraceID:  parent.traceID,
		SpanID:   newID(),
		ParentID: parent.id,
		Name:     name,
		Process:  parent.rec.process,
		Start:    start.UnixNano(),
		Duration: d.Microseconds(),
		Attrs:    m,
		Error:    "",
	})
}

// newID returns a 16-hex-digit random identifier, used for both trace
// and span IDs.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to
		// a constant rather than panic inside instrumentation.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
