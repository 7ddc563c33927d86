package httpobs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"tapas/internal/promtext"
	"tapas/internal/trace"
)

type ctxKey struct{}

// TestWrapHooksAndLogLine drives one request through the middleware with
// both hooks set and pins everything the daemons rely on: the client
// rule, the Enter context, the Exchange the Exit hook sees, the byte
// layout of the log line with and without extra pairs, the span's
// name and attrs, and the echoed trace header.
func TestWrapHooksAndLogLine(t *testing.T) {
	rec := trace.NewRecorder(trace.Config{})
	hist := promtext.NewHistogram(nil)
	var plain, extra string
	h := Wrap(Config{
		Rec:  rec,
		Hist: hist,
		Enter: func(ctx context.Context, client string) context.Context {
			return context.WithValue(ctx, ctxKey{}, client)
		},
		Exit: func(x Exchange) {
			x.Span.SetAttr("replica", x.Header.Get("X-Tapas-Replica"))
			plain = x.LogLine("request")
			extra = x.LogLine("slow_request", "replica", x.Header.Get("X-Tapas-Replica"))
		},
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got, _ := r.Context().Value(ctxKey{}).(string); got != "alice" {
			t.Errorf("handler context carries client %q, want alice", got)
		}
		if trace.FromContext(r.Context()) == nil {
			t.Error("handler context carries no span")
		}
		w.Header().Set("X-Tapas-Replica", "http://r1")
		w.WriteHeader(http.StatusTeapot)
	}))

	req := httptest.NewRequest("POST", "/v1/search", nil)
	req.Header.Set(ClientHeader, "alice")
	req.Header.Set(trace.TraceHeader, "feedfacefeedface")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)

	if got := rr.Header().Get(trace.TraceHeader); got != "feedfacefeedface" {
		t.Errorf("trace header echoed as %q", got)
	}
	wantPlain := regexp.MustCompile(`^request method=POST path=/v1/search status=418 dur=\S+ client=alice trace=feedfacefeedface$`)
	wantExtra := regexp.MustCompile(`^slow_request method=POST path=/v1/search status=418 dur=\S+ client=alice replica=http://r1 trace=feedfacefeedface$`)
	if !wantPlain.MatchString(plain) {
		t.Errorf("log line %q does not match %s", plain, wantPlain)
	}
	if !wantExtra.MatchString(extra) {
		t.Errorf("log line %q does not match %s", extra, wantExtra)
	}
	if hist.Count() != 1 {
		t.Errorf("histogram holds %d observations, want 1", hist.Count())
	}
	doc, ok := rec.Trace("feedfacefeedface")
	if !ok || len(doc.Spans) != 1 {
		t.Fatalf("recorder holds %+v for the trace, want one span", doc)
	}
	sp := doc.Spans[0]
	if sp.Name != "POST /v1/search" {
		t.Errorf("span named %q", sp.Name)
	}
	for k, want := range map[string]string{"client": "alice", "status": "418", "replica": "http://r1"} {
		if sp.Attrs[k] != want {
			t.Errorf("span attr %s = %q, want %q", k, sp.Attrs[k], want)
		}
	}
}

// TestWrapDefaults covers the zero Config (nil recorder, no hooks), the
// implicit 200, the client-IP fallback and the scrape exemption.
func TestWrapDefaults(t *testing.T) {
	hist := promtext.NewHistogram(nil)
	h := Wrap(Config{Hist: hist}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	for _, path := range []string{"/metrics", "/v1/traces", "/v1/traces/abc"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
	}
	if hist.Count() != 0 {
		t.Fatalf("exempt paths were observed %d times", hist.Count())
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/tracesX", nil))
	if hist.Count() != 1 {
		t.Fatalf("non-exempt path observed %d times, want 1", hist.Count())
	}

	req := httptest.NewRequest("GET", "/", nil)
	req.RemoteAddr = "10.1.2.3:4567"
	if got := Client(req); got != "10.1.2.3" {
		t.Errorf("Client = %q, want the remote IP", got)
	}
	req.RemoteAddr = "not-host-port"
	if got := Client(req); got != "not-host-port" {
		t.Errorf("Client = %q, want the raw remote address", got)
	}
}

// TestStatusWriterPassThrough keeps SSE relays live through the wrapper:
// Flush reaches the underlying writer and ResponseController can unwrap.
func TestStatusWriterPassThrough(t *testing.T) {
	h := Wrap(Config{Hist: promtext.NewHistogram(nil)}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("wrapped writer is not a Flusher")
		}
		_, _ = w.Write([]byte("data: x\n\n"))
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("ResponseController.Flush through the wrapper: %v", err)
		}
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/x/events", nil))
	if !rr.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
}
