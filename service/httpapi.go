package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"tapas/internal/promtext"
	"tapas/internal/trace"
	"tapas/store"
)

// maxRequestBytes bounds request bodies (inline graphio specs included).
const maxRequestBytes = 8 << 20

// NewHandler wires the daemon's full HTTP surface over one Service —
// the v1 API, the store peer protocol (when the engine has a store
// attached), and the Prometheus /metrics endpoint. cmd/tapas-serve
// mounts it as its root handler; tests drive it through httptest.
//
//	POST   /v1/search           synchronous search
//	POST   /v1/search:batch     many searches in one call, positional results
//	POST   /v1/tasks            execute shipped prefix tasks (distributed cold search)
//	POST   /v1/jobs             submit an async job (202 + job status)
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        job status (result embedded when done)
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/events SSE stream of progress + state events
//	GET    /v1/models           registered model names
//	GET    /v1/healthz          queue, worker, cache and store statistics
//	GET    /v1/store[/{id}]     store peer protocol (see store.Handler)
//	GET    /v1/traces[/{id}]    flight recorder (recent traces / one span tree)
//	GET    /metrics             Prometheus text exposition
//
// Every request (except /metrics and the flight recorder itself) runs
// under the observability middleware: spans adopted from the
// X-Tapas-Trace/X-Tapas-Parent headers or sampled fresh, the trace ID
// echoed back as X-Tapas-Trace, latency recorded in
// tapas_request_duration_seconds, and an optional key=value request
// log line.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", func(w http.ResponseWriter, r *http.Request) {
		var req SearchRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := svc.Search(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/search:batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchSearchRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := svc.SearchBatch(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/tasks", func(w http.ResponseWriter, r *http.Request) {
		var req TaskRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := svc.ExecuteTasks(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SearchRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		st, err := svc.Submit(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": svc.Jobs()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := svc.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := svc.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(svc, w, r)
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"models": svc.Models()})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		stats := svc.Stats()
		status := "ok"
		if stats.Draining {
			status = "draining"
		}
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
			Stats
		}{Status: status, Stats: stats})
	})
	if st := svc.Engine().Store(); st != nil {
		sh := store.Handler(st)
		mux.Handle("/v1/store", sh)
		mux.Handle("/v1/store/", sh)
	} else {
		noStore := func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusNotFound, errBody("no plan store configured on this daemon"))
		}
		mux.HandleFunc("/v1/store", noStore)
		mux.HandleFunc("/v1/store/", noStore)
	}
	th := trace.Handler(svc.obs.rec)
	mux.Handle("GET /v1/traces", th)
	mux.Handle("GET /v1/traces/", th)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", promtext.ContentType)
		m := metricsFor(svc.Stats())
		svc.obs.addMetrics(m)
		promtext.AddRuntime(m)
		_, _ = m.WriteTo(w)
	})
	return withObs(svc.obs, mux)
}

// metricsFor renders a health snapshot as Prometheus families — the
// same cache/store/queue counters /v1/healthz serves as JSON.
func metricsFor(st Stats) *promtext.Metrics {
	m := promtext.New()
	m.Counter("tapas_cache_hits_total", "Result-cache hits.", float64(st.Cache.Hits), nil)
	m.Counter("tapas_cache_misses_total", "Result-cache misses (cold pipeline runs).", float64(st.Cache.Misses), nil)
	m.Counter("tapas_cache_joined_total", "Requests that joined an identical in-flight search.", float64(st.Cache.Joined), nil)
	m.Gauge("tapas_cache_entries", "Result-cache entries resident.", float64(st.Cache.Entries), nil)
	m.Gauge("tapas_cache_capacity", "Result-cache capacity.", float64(st.Cache.Capacity), nil)

	m.Gauge("tapas_jobs_queued", "Async jobs waiting for a worker.", float64(st.Queued), nil)
	m.Gauge("tapas_jobs_running", "Async jobs running now.", float64(st.Running), nil)
	m.Gauge("tapas_jobs_finished", "Terminal jobs retained for polling.", float64(st.Finished), nil)
	m.Gauge("tapas_jobs_queue_capacity", "Async job queue capacity.", float64(st.QueueCapacity), nil)
	m.Gauge("tapas_jobs_workers", "Concurrent job workers.", float64(st.JobWorkers), nil)
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	m.Gauge("tapas_draining", "1 while the daemon drains for shutdown.", draining, nil)

	if st.JobsDurable {
		m.Counter("tapas_jobs_adopted_total", "Orphaned jobs adopted (re-enqueued) from durable records at startup.", float64(st.JobsAdopted), nil)
	}
	if js := st.JobStore; js != nil {
		m.Gauge("tapas_job_store_records", "Durable job records found at open.", float64(js.Records), nil)
		m.Counter("tapas_job_store_persists_total", "Job records written.", float64(js.Persists), nil)
		m.Counter("tapas_job_store_deletes_total", "Job records deleted by retention.", float64(js.Deletes), nil)
		m.Counter("tapas_job_store_dropped_total", "Job record writes dropped after close.", float64(js.Dropped), nil)
		m.Counter("tapas_job_store_write_errors_total", "Job record writes that failed at the backend.", float64(js.WriteErrors), nil)
		m.Counter("tapas_job_store_corrupt_total", "Job records skipped at load as unreadable.", float64(js.Corrupt), nil)
	}

	m.Counter("tapas_tasks_executed_total", "Prefix tasks executed for remote coordinators via /v1/tasks.", float64(st.TasksExecuted), nil)
	m.Counter("tapas_tasks_failed_total", "Rejected or failed /v1/tasks batches.", float64(st.TasksFailed), nil)
	if f := st.Fleet; f != nil {
		m.Gauge("tapas_fleet_peers", "Configured scatter peers.", float64(f.Peers), nil)
		m.Gauge("tapas_fleet_peers_healthy", "Scatter peers currently accepting tasks.", float64(f.PeersHealthy), nil)
		m.Counter("tapas_tasks_scattered_total", "Prefix tasks successfully executed by fleet peers.", float64(f.TasksScattered), nil)
		m.Counter("tapas_tasks_failed_over_total", "Task batches that moved to another peer or the local pool.", float64(f.TasksFailedOver), nil)
		m.Counter("tapas_tasks_local_total", "Prefix tasks executed by the coordinator's local pool.", float64(f.TasksLocal), nil)
	}

	if s := st.Store; s != nil {
		m.Counter("tapas_store_hits_total", "Plan-store hits.", float64(s.Hits), nil)
		m.Counter("tapas_store_misses_total", "Plan-store misses.", float64(s.Misses), nil)
		m.Counter("tapas_store_puts_total", "Plans persisted.", float64(s.Puts), nil)
		m.Counter("tapas_store_evictions_total", "Records evicted past the LRU bound.", float64(s.Evictions), nil)
		m.Counter("tapas_store_corrupt_total", "Records skipped or dropped as unreadable.", float64(s.Corrupt), nil)
		m.Counter("tapas_store_dropped_total", "Write-behind persists dropped (queue full).", float64(s.Dropped), nil)
		m.Counter("tapas_store_write_errors_total", "Write-behind persists that failed at the backend.", float64(s.WriteErrors), nil)
		m.Counter("tapas_store_read_errors_total", "Transient backend read failures answered as misses.", float64(s.ReadErrors), nil)
		m.Gauge("tapas_store_entries", "Records indexed.", float64(s.Entries), nil)
		m.Gauge("tapas_store_capacity", "Store index capacity.", float64(s.Capacity), nil)
	}

	if r := st.Replication; r != nil {
		m.Gauge("tapas_replicate_peers", "Configured replication peers.", float64(r.Peers), nil)
		m.Gauge("tapas_replicate_peers_healthy", "Replication peers currently reachable.", float64(r.PeersHealthy), nil)
		m.Counter("tapas_replicate_fanout_writes_total", "Store writes applied to peers by the write-behind fanout.", float64(r.FanoutWrites), nil)
		m.Counter("tapas_replicate_fanout_errors_total", "Fanout writes that failed at a peer.", float64(r.FanoutErrors), nil)
		m.Counter("tapas_replicate_dead_peer_skips_total", "Operations that skipped a peer marked down.", float64(r.DeadPeerSkips), nil)
		m.Counter("tapas_replicate_queue_dropped_total", "Fanout ops dropped (peer queue full or backend closed).", float64(r.QueueDropped), nil)
		m.Counter("tapas_replicate_repair_hits_total", "Local misses served by a peer and re-put locally (read-repair).", float64(r.RepairHits), nil)
	}
	return m
}

// serveEvents streams a job's events as Server-Sent Events until the
// job reaches a terminal state (the subscription channel closes) or the
// client disconnects.
func serveEvents(svc *Service, w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := svc.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("streaming unsupported by connection"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			fl.Flush()
		}
	}
}

// decodeJSON parses the request body into dst, answering 400 on
// malformed input. Returns false when a response was already written.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(fmt.Sprintf("invalid request body: %v", err)))
		return false
	}
	return true
}

// errBody is the JSON error envelope of every non-2xx response.
func errBody(msg string) map[string]string { return map[string]string{"error": msg} }

// writeError maps the service error taxonomy onto HTTP statuses, always
// with a JSON body — including requests cut short by shutdown. The
// mapping itself lives in ErrorStatus, shared with the per-item statuses
// of batch responses.
func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, ErrorStatus(err), errBody(err.Error()))
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
