package trace

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Inject writes the context's active trace onto an outbound request's
// headers: the trace ID and the active span's ID as the remote parent.
// No-op when the request is untraced.
func Inject(ctx context.Context, h http.Header) {
	s := FromContext(ctx)
	if s == nil {
		return
	}
	h.Set(TraceHeader, s.traceID)
	h.Set(ParentHeader, s.id)
}

// Extract reads the propagation headers from an inbound request. Only
// a well-formed ID (validID) is adopted; anything else reads as absent,
// so a request with a malformed trace header is sampled like an
// untraced one, and one with a malformed parent starts a root span.
func Extract(h http.Header) (traceID, parentID string) {
	traceID, parentID = h.Get(TraceHeader), h.Get(ParentHeader)
	if !validID(traceID) {
		return "", ""
	}
	if !validID(parentID) {
		parentID = ""
	}
	return traceID, parentID
}

// idChars is the alphabet of an adoptable trace or span ID.
const idChars = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_-"

// validID reports whether id is 1–64 characters of idChars: every ID
// newID mints qualifies, and an adopted one stays addressable as
// GET /v1/traces/{id} and small enough to echo back as a header.
func validID(id string) bool {
	return id != "" && len(id) <= 64 && strings.Trim(id, idChars) == ""
}

// Handler serves the flight-recorder API for rec:
//
//	GET /v1/traces            — recent trace summaries, newest first
//	                            (?min_ms= filters short traces, ?limit=
//	                            caps rows, default 100)
//	GET /v1/traces/{id}       — full span list + tree for one trace
//
// Mount it at /v1/traces and /v1/traces/ on the daemon mux.
func Handler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/v1/traces")
		rest = strings.Trim(rest, "/")
		switch {
		case rest == "":
			minDur := time.Duration(0)
			if v := r.URL.Query().Get("min_ms"); v != "" {
				ms, err := strconv.ParseFloat(v, 64)
				if err != nil || ms < 0 {
					http.Error(w, "min_ms must be a non-negative number", http.StatusBadRequest)
					return
				}
				minDur = time.Duration(ms * float64(time.Millisecond))
			}
			limit := 100
			if v := r.URL.Query().Get("limit"); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n <= 0 {
					http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
					return
				}
				limit = n
			}
			writeTraceJSON(w, map[string]any{"traces": rec.Traces(minDur, limit)})
		case !strings.Contains(rest, "/"):
			doc, ok := rec.Trace(rest)
			if !ok {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			writeTraceJSON(w, doc)
		default:
			http.NotFound(w, r)
		}
	})
}

func writeTraceJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
