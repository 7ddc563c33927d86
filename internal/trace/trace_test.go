package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.SetError(errors.New("boom"))
	s.End()
	if s.TraceID() != "" || s.ID() != "" {
		t.Fatalf("nil span must have empty IDs")
	}

	ctx, child := StartSpan(context.Background(), "child")
	if child != nil {
		t.Fatalf("StartSpan without an active span must return nil")
	}
	if FromContext(ctx) != nil {
		t.Fatalf("untraced context must carry no span")
	}
	Record(ctx, "late", time.Now(), time.Millisecond) // must not panic

	var rec *Recorder
	if _, s2 := rec.StartRequest(ctx, "r", "", ""); s2 != nil {
		t.Fatalf("nil recorder must not produce spans")
	}
	if got := rec.Traces(0, 0); got != nil {
		t.Fatalf("nil recorder Traces = %v, want nil", got)
	}
}

func TestSpanTreeAndAdoptedIDs(t *testing.T) {
	rec := NewRecorder(Config{Process: "test", SampleEvery: 1})

	ctx, root := rec.StartRequest(context.Background(), "request", "feedfacefeedface", "1111111111111111")
	if root.TraceID() != "feedfacefeedface" {
		t.Fatalf("root adopted trace ID %q", root.TraceID())
	}
	ctx2, child := StartSpan(ctx, "search")
	child.SetAttr("model", "t5-3B")
	_, grand := StartSpan(ctx2, "mine")
	grand.SetError(errors.New("boom"))
	grand.End()
	Record(ctx2, "enum", time.Now().Add(-time.Millisecond), time.Millisecond, "examined", "42")
	child.End()
	root.End()

	doc, ok := rec.Trace("feedfacefeedface")
	if !ok {
		t.Fatalf("trace not found")
	}
	if len(doc.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(doc.Spans))
	}
	if len(doc.Tree) != 1 {
		t.Fatalf("got %d roots, want 1 (tree: %+v)", len(doc.Tree), doc.Tree)
	}
	r := doc.Tree[0]
	if r.Name != "request" || r.ParentID != "1111111111111111" {
		t.Fatalf("root = %q parent %q", r.Name, r.ParentID)
	}
	if len(r.Children) != 1 || r.Children[0].Name != "search" {
		t.Fatalf("root children = %+v", r.Children)
	}
	search := r.Children[0]
	if search.Attrs["model"] != "t5-3B" {
		t.Fatalf("search attrs = %v", search.Attrs)
	}
	if len(search.Children) != 2 {
		t.Fatalf("search children = %+v", search.Children)
	}
	names := map[string]bool{}
	for _, c := range search.Children {
		names[c.Name] = true
	}
	if !names["mine"] || !names["enum"] {
		t.Fatalf("search child names = %v", names)
	}
	for _, c := range search.Children {
		switch c.Name {
		case "mine":
			if c.Error != "boom" {
				t.Fatalf("mine error = %q", c.Error)
			}
		case "enum":
			if c.Attrs["examined"] != "42" {
				t.Fatalf("enum attrs = %v", c.Attrs)
			}
		}
	}

	sums := rec.Traces(0, 0)
	if len(sums) != 1 || sums[0].TraceID != "feedfacefeedface" || sums[0].Spans != 4 || sums[0].Errors != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].Root != "request" {
		t.Fatalf("summary root = %q", sums[0].Root)
	}
}

func TestSamplingAndEviction(t *testing.T) {
	rec := NewRecorder(Config{SampleEvery: 0})
	if _, s := rec.StartRequest(context.Background(), "r", "", ""); s != nil {
		t.Fatalf("SampleEvery=0 must not sample organic requests")
	}
	// Propagated traces are always recorded regardless of sampling.
	if _, s := rec.StartRequest(context.Background(), "r", "aaaaaaaaaaaaaaaa", ""); s == nil {
		t.Fatalf("a propagated trace must always be recorded")
	}

	rec2 := NewRecorder(Config{SampleEvery: 3})
	sampled := 0
	for i := 0; i < 30; i++ {
		if _, s := rec2.StartRequest(context.Background(), "r", "", ""); s != nil {
			sampled++
			s.End()
		}
	}
	if sampled != 10 {
		t.Fatalf("SampleEvery=3 sampled %d of 30", sampled)
	}

	// Ring eviction: cap at 2 traces, insert 3.
	rec3 := NewRecorder(Config{SampleEvery: 1, MaxTraces: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		_, s := rec3.StartRequest(context.Background(), "r", "", "")
		ids = append(ids, s.TraceID())
		s.End()
	}
	if _, ok := rec3.Trace(ids[0]); ok {
		t.Fatalf("oldest trace should have been evicted")
	}
	for _, id := range ids[1:] {
		if _, ok := rec3.Trace(id); !ok {
			t.Fatalf("trace %s missing", id)
		}
	}

	// Span cap: spans beyond MaxSpansPerTrace are dropped, not blocked.
	rec4 := NewRecorder(Config{SampleEvery: 1, MaxSpansPerTrace: 2})
	ctx, root := rec4.StartRequest(context.Background(), "r", "", "")
	for i := 0; i < 4; i++ {
		_, c := StartSpan(ctx, fmt.Sprintf("c%d", i))
		c.End()
	}
	root.End()
	doc, _ := rec4.Trace(root.TraceID())
	if len(doc.Spans) != 2 || doc.Dropped != 3 {
		t.Fatalf("spans=%d dropped=%d, want 2/3", len(doc.Spans), doc.Dropped)
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	rec := NewRecorder(Config{SampleEvery: 1})
	_, s := rec.StartRequest(context.Background(), "r", "", "")
	s.End()
	s.End()
	doc, _ := rec.Trace(s.TraceID())
	if len(doc.Spans) != 1 {
		t.Fatalf("double End recorded %d spans", len(doc.Spans))
	}
}

func TestInjectExtract(t *testing.T) {
	rec := NewRecorder(Config{SampleEvery: 1})
	ctx, s := rec.StartRequest(context.Background(), "r", "", "")
	req := httptest.NewRequest("GET", "/", nil)
	Inject(ctx, req.Header)
	traceID, parentID := Extract(req.Header)
	if traceID != s.TraceID() || parentID != s.ID() {
		t.Fatalf("extracted %q/%q, want %q/%q", traceID, parentID, s.TraceID(), s.ID())
	}

	// Untraced contexts must not set headers.
	req2 := httptest.NewRequest("GET", "/", nil)
	Inject(context.Background(), req2.Header)
	if req2.Header.Get(TraceHeader) != "" {
		t.Fatalf("untraced Inject set %q", req2.Header.Get(TraceHeader))
	}
}

// TestExtractValidatesIDs: only IDs of 1–64 characters of
// [0-9A-Za-z_-] are adopted. Any other trace ID reads as absent (the
// request is sampled like an untraced one), and any other parent ID
// leaves the adopted trace without a remote parent.
func TestExtractValidatesIDs(t *testing.T) {
	long := strings.Repeat("a", 64)
	for _, tc := range []struct {
		trace, parent         string
		wantTrace, wantParent string
	}{
		{"cafebabecafebabe", "0123456789abcdef", "cafebabecafebabe", "0123456789abcdef"},
		{fmt.Sprintf("c01d%012x", 7), "", fmt.Sprintf("c01d%012x", 7), ""},
		{"Run_42-b", "x", "Run_42-b", "x"},
		{long, long, long, long},
		{"", "0123456789abcdef", "", ""},
		{"abc/def", "0123456789abcdef", "", ""},
		{long + "a", "0123456789abcdef", "", ""},
		{strings.Repeat("f", 200000), "", "", ""},
		{"has space", "", "", ""},
		{"dot.ted", "", "", ""},
		{"caf\u00e9", "", "", ""},
		{"cafebabecafebabe", "../up", "cafebabecafebabe", ""},
		{"cafebabecafebabe", long + "a", "cafebabecafebabe", ""},
	} {
		h := http.Header{}
		h.Set(TraceHeader, tc.trace)
		h.Set(ParentHeader, tc.parent)
		traceID, parentID := Extract(h)
		if traceID != tc.wantTrace || parentID != tc.wantParent {
			t.Errorf("Extract(%.20q, %.20q) = %.20q, %.20q; want %.20q, %.20q",
				tc.trace, tc.parent, traceID, parentID, tc.wantTrace, tc.wantParent)
		}
	}
}

// FuzzTraceHeaders: whatever Extract adopts from the propagation
// headers is either empty or, once the request's span ends, fetchable
// through Handler under that ID.
func FuzzTraceHeaders(f *testing.F) {
	f.Add("cafebabecafebabe", "0123456789abcdef")
	f.Add("abc/def", "")
	f.Add("%2F", "a b")
	f.Add(strings.Repeat("z", 65), "-")
	f.Fuzz(func(t *testing.T, traceHdr, parentHdr string) {
		h := http.Header{}
		h.Set(TraceHeader, traceHdr)
		h.Set(ParentHeader, parentHdr)
		traceID, parentID := Extract(h)
		if traceID == "" {
			if parentID != "" {
				t.Fatalf("parent %q adopted without a trace", parentID)
			}
			return
		}
		rec := NewRecorder(Config{})
		_, s := rec.StartRequest(context.Background(), "r", traceID, parentID)
		s.End()
		rw := httptest.NewRecorder()
		Handler(rec).ServeHTTP(rw, httptest.NewRequest("GET", "/v1/traces/"+url.PathEscape(traceID), nil))
		if rw.Code != http.StatusOK {
			t.Fatalf("adopted trace %q (parent %q) is not fetchable: status %d", traceID, parentID, rw.Code)
		}
	})
}

func TestHandler(t *testing.T) {
	rec := NewRecorder(Config{Process: "p1", SampleEvery: 1})
	ctx, root := rec.StartRequest(context.Background(), "slow", "", "")
	_, c := StartSpan(ctx, "child")
	time.Sleep(5 * time.Millisecond)
	c.End()
	root.End()
	_, fast := rec.StartRequest(context.Background(), "fast", "", "")
	fast.End()

	h := Handler(rec)

	// Listing, newest first.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/traces", nil))
	if rw.Code != 200 {
		t.Fatalf("list status %d: %s", rw.Code, rw.Body)
	}
	var list struct {
		Traces []TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 2 || list.Traces[0].Root != "fast" {
		t.Fatalf("listing = %+v", list.Traces)
	}

	// min_ms filter drops the fast trace.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/traces?min_ms=4", nil))
	list.Traces = nil
	if err := json.Unmarshal(rw.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 1 || list.Traces[0].TraceID != root.TraceID() {
		t.Fatalf("min_ms listing = %+v", list.Traces)
	}

	// Detail endpoint returns the tree.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/traces/"+root.TraceID(), nil))
	if rw.Code != 200 {
		t.Fatalf("detail status %d: %s", rw.Code, rw.Body)
	}
	var doc TraceDoc
	if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Process != "p1" || len(doc.Tree) != 1 || len(doc.Tree[0].Children) != 1 {
		t.Fatalf("doc = %+v", doc)
	}

	// Unknown ID is 404; bad query is 400; wrong method is 405.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/traces/ffffffffffffffff", nil))
	if rw.Code != 404 {
		t.Fatalf("missing trace status %d", rw.Code)
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/traces?min_ms=nope", nil))
	if rw.Code != 400 {
		t.Fatalf("bad min_ms status %d", rw.Code)
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/traces", nil))
	if rw.Code != 405 {
		t.Fatalf("POST status %d", rw.Code)
	}
}
