package trace

import (
	"context"
	"sort"
	"sync"
	"time"
)

// SpanData is the immutable record of one finished span, as stored in
// the recorder and served by /v1/traces/{id}.
type SpanData struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Process  string            `json:"process,omitempty"`
	Start    int64             `json:"start_unix_ns"`
	Duration int64             `json:"duration_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// Config tunes a Recorder. The zero value is usable: sampling off
// (only propagated traces recorded), default ring sizes.
type Config struct {
	// Process names this process in every span it records (e.g.
	// "tapas-serve:8081"), so a merged cross-process tree shows which
	// hop each span ran on.
	Process string
	// SampleEvery records 1 in N requests that arrive without a trace
	// header. 0 disables organic sampling (propagated traces are always
	// recorded); 1 records everything.
	SampleEvery int
	// MaxTraces bounds the ring buffer (default 256 traces).
	MaxTraces int
	// MaxSpansPerTrace bounds one trace's span list (default 512); spans
	// beyond it are dropped, never blocked on.
	MaxSpansPerTrace int
}

// Recorder owns one process's bounded trace ring buffer. All methods
// are safe for concurrent use; a nil *Recorder disables tracing (every
// method no-ops and StartRequest returns a nil span).
type Recorder struct {
	process  string
	every    int
	maxT     int
	maxSpans int

	mu     sync.Mutex
	tick   uint64                 // sampling counter
	order  []string               // trace IDs, oldest first
	traces map[string]*traceEntry // keyed by trace ID
}

type traceEntry struct {
	spans   []SpanData
	dropped int
}

// NewRecorder builds a recorder with cfg (see Config for defaults).
func NewRecorder(cfg Config) *Recorder {
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = 256
	}
	if cfg.MaxSpansPerTrace <= 0 {
		cfg.MaxSpansPerTrace = 512
	}
	return &Recorder{
		process:  cfg.Process,
		every:    cfg.SampleEvery,
		maxT:     cfg.MaxTraces,
		maxSpans: cfg.MaxSpansPerTrace,
		traces:   make(map[string]*traceEntry),
	}
}

// StartRequest begins the process-local root span for one incoming
// request. When traceID is non-empty (the caller sent X-Tapas-Trace)
// the request is always recorded, adopting that trace ID with parentID
// as the root's parent; otherwise the request is sampled 1-in-
// SampleEvery and a fresh trace ID is minted. Unsampled requests (and
// a nil recorder) return (ctx, nil): the nil span no-ops everywhere
// and downstream hops see no trace headers.
func (r *Recorder) StartRequest(ctx context.Context, name, traceID, parentID string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	if traceID == "" {
		if !r.sample() {
			return ctx, nil
		}
		traceID = newID()
		parentID = ""
	}
	s := &Span{
		rec:      r,
		traceID:  traceID,
		id:       newID(),
		parentID: parentID,
		name:     name,
		start:    time.Now(),
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// RecordSpan records one already-completed span as a standalone
// single-span trace, subject to sampling — for background work
// (replication fanout, read-repair) whose call sites have no context
// to carry a span on. attrs are key, value pairs.
func (r *Recorder) RecordSpan(name string, start time.Time, d time.Duration, errMsg string, attrs ...string) {
	if r == nil || !r.sample() {
		return
	}
	var m map[string]string
	if len(attrs) >= 2 {
		m = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
		}
	}
	r.record(SpanData{
		TraceID:  newID(),
		SpanID:   newID(),
		Name:     name,
		Process:  r.process,
		Start:    start.UnixNano(),
		Duration: d.Microseconds(),
		Attrs:    m,
		Error:    errMsg,
	})
}

func (r *Recorder) sample() bool {
	if r.every <= 0 {
		return false
	}
	if r.every == 1 {
		return true
	}
	r.mu.Lock()
	r.tick++
	ok := r.tick%uint64(r.every) == 1
	r.mu.Unlock()
	return ok
}

// record appends one finished span, evicting the oldest trace when the
// ring is full. Nil-safe so Span.End works under a nil recorder.
func (r *Recorder) record(d SpanData) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.traces[d.TraceID]
	if e == nil {
		if len(r.order) >= r.maxT {
			evict := r.order[0]
			r.order = r.order[1:]
			delete(r.traces, evict)
		}
		e = &traceEntry{}
		r.traces[d.TraceID] = e
		r.order = append(r.order, d.TraceID)
	}
	if len(e.spans) >= r.maxSpans {
		e.dropped++
		return
	}
	e.spans = append(e.spans, d)
}

// TraceSummary is one row of the GET /v1/traces listing.
type TraceSummary struct {
	TraceID    string  `json:"trace_id"`
	Root       string  `json:"root"` // name of the earliest-starting span
	Start      int64   `json:"start_unix_ns"`
	DurationMS float64 `json:"duration_ms"` // max span end − min span start
	Spans      int     `json:"spans"`
	Errors     int     `json:"errors"`
}

// Traces returns summaries of recorded traces, newest first, keeping
// only traces at least minDur long and at most limit rows (limit <= 0
// means no cap).
func (r *Recorder) Traces(minDur time.Duration, limit int) []TraceSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSummary, 0, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		id := r.order[i]
		e := r.traces[id]
		if e == nil || len(e.spans) == 0 {
			continue
		}
		s := summarize(id, e.spans)
		if time.Duration(s.DurationMS*float64(time.Millisecond)) < minDur {
			continue
		}
		out = append(out, s)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

func summarize(id string, spans []SpanData) TraceSummary {
	local := make(map[string]bool, len(spans))
	for _, d := range spans {
		local[d.SpanID] = true
	}
	minStart, maxEnd := spans[0].Start, spans[0].Start+spans[0].Duration*1000
	// The summary root is the earliest span whose parent is not local —
	// synthetic Record spans can carry back-dated starts, so "earliest
	// overall" would misname the trace.
	root := spans[0]
	rootFound := false
	errs := 0
	for _, d := range spans {
		if d.Start < minStart {
			minStart = d.Start
		}
		if end := d.Start + d.Duration*1000; end > maxEnd {
			maxEnd = end
		}
		if !local[d.ParentID] && (!rootFound || d.Start < root.Start) {
			root = d
			rootFound = true
		}
		if d.Error != "" {
			errs++
		}
	}
	return TraceSummary{
		TraceID:    id,
		Root:       root.Name,
		Start:      minStart,
		DurationMS: float64(maxEnd-minStart) / 1e6,
		Spans:      len(spans),
		Errors:     errs,
	}
}

// SpanNode is a span plus its children, the tree shape served by
// GET /v1/traces/{id}.
type SpanNode struct {
	SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// TraceDoc is the full detail of one trace on this process: the flat
// span list (insertion order) and the same spans as parent/child
// trees. Spans whose parent ran on another process (or was dropped)
// become roots with ParentID preserved, so a client can stitch trees
// from several processes together by ID.
type TraceDoc struct {
	TraceID string      `json:"trace_id"`
	Process string      `json:"process,omitempty"`
	Spans   []SpanData  `json:"spans"`
	Tree    []*SpanNode `json:"tree"`
	Dropped int         `json:"dropped_spans,omitempty"`
}

// Trace returns the full document for one trace ID, or ok=false when
// this process recorded nothing for it.
func (r *Recorder) Trace(id string) (TraceDoc, bool) {
	if r == nil {
		return TraceDoc{}, false
	}
	r.mu.Lock()
	e := r.traces[id]
	var spans []SpanData
	dropped := 0
	if e != nil {
		spans = append([]SpanData(nil), e.spans...)
		dropped = e.dropped
	}
	r.mu.Unlock()
	if len(spans) == 0 {
		return TraceDoc{}, false
	}
	return TraceDoc{
		TraceID: id,
		Process: r.process,
		Spans:   spans,
		Tree:    buildTree(spans),
		Dropped: dropped,
	}, true
}

// buildTree links spans into parent/child trees. Children are ordered
// by start time; roots (spans whose parent is absent locally) likewise.
func buildTree(spans []SpanData) []*SpanNode {
	nodes := make(map[string]*SpanNode, len(spans))
	for _, d := range spans {
		nodes[d.SpanID] = &SpanNode{SpanData: d}
	}
	var roots []*SpanNode
	for _, d := range spans {
		n := nodes[d.SpanID]
		if p, ok := nodes[d.ParentID]; ok && d.ParentID != d.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Start < ns[j].Start })
	}
	for _, n := range nodes {
		byStart(n.Children)
	}
	byStart(roots)
	return roots
}
