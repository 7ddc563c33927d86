package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tapas/internal/graphio"
	"tapas/internal/httpobs"
	"tapas/internal/models"
	"tapas/internal/promtext"
	"tapas/internal/trace"
	"tapas/service"
)

// maxBodyBytes bounds one proxied request body (mirrors the daemon's
// own limit).
const maxBodyBytes = 8 << 20

// replicaHeader names the replica that answered a proxied request — for
// debugging, and for the routing tests, which read where a request
// landed from it.
const replicaHeader = "X-Tapas-Replica"

const (
	// vnodes is the number of virtual nodes per replica on the hash ring.
	vnodes = 64
	// healthInterval is the active health-check period.
	healthInterval = 2 * time.Second
	// healthTimeout bounds one replica health check.
	healthTimeout = 2 * time.Second
	// jobTableSize is how many job-to-replica pins are retained.
	jobTableSize = 4096
)

// gatewayConfig sizes a gateway.
type gatewayConfig struct {
	replicas []string
	rate     float64 // tokens/second per client, bucket depth max(1, 2*rate); 0 disables rate limiting
	logf     func(string, ...any)

	// rec is the gateway's trace flight recorder; nil disables tracing
	// (the /v1/traces endpoints then answer empty).
	rec *trace.Recorder
	// traceSlow logs a slow_request line for requests at least this
	// long; 0 disables.
	traceSlow time.Duration
	// logRequests emits one key=value log line per proxied request.
	logRequests bool
}

// replicaState is one backend daemon as the gateway sees it.
type replicaState struct {
	url     string
	healthy atomic.Bool
	lastErr atomic.Pointer[string]

	proxied     atomic.Uint64 // responses relayed from this replica
	proxyErrors atomic.Uint64 // transport failures against it
}

func (r *replicaState) setErr(err error) {
	if err == nil {
		r.lastErr.Store(nil)
		return
	}
	s := err.Error()
	r.lastErr.Store(&s)
}

func (r *replicaState) errString() string {
	if p := r.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// gateway routes the v1 API across a fixed fleet of tapas-serve
// replicas: consistent-hash routing on the search identity (so each
// replica's memory cache concentrates on its share of the key space),
// active health checks with ring-order failover, per-client
// token-bucket rate limiting, and job-owner stickiness for the async
// API. Identical concurrent searches share one key, hence one replica,
// whose engine joins them onto one search.
type gateway struct {
	cfg      gatewayConfig
	replicas []*replicaState // fixed for the life of the process
	ring     *hashRing       // over replicas' indices
	limiter  *limiter        // nil when disabled

	proxy  *http.Client // no timeout: searches run long; request contexts bound it
	health *http.Client

	owners *ownerTable
	fps    sync.Map // model name → graph fingerprint

	requests    atomic.Uint64
	rateLimited atomic.Uint64
	failovers   atomic.Uint64

	reqHist *promtext.Histogram // tapas_request_duration_seconds
}

func newGateway(cfg gatewayConfig) *gateway {
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	gw := &gateway{
		cfg:     cfg,
		proxy:   &http.Client{},
		health:  &http.Client{Timeout: healthTimeout},
		owners:  newOwnerTable(jobTableSize),
		reqHist: promtext.NewHistogram(nil),
	}
	for _, u := range cfg.replicas {
		rs := &replicaState{url: strings.TrimRight(u, "/")}
		rs.healthy.Store(true) // optimistic until the first check
		gw.replicas = append(gw.replicas, rs)
	}
	gw.ring = newRing(len(gw.replicas), vnodes, func(i int) string { return gw.replicas[i].url })
	if cfg.rate > 0 {
		// A bucket holds two seconds of tokens: a client may burst twice
		// its rate, and never less than one request.
		gw.limiter = newLimiter(cfg.rate, int(math.Max(1, 2*cfg.rate)))
	}
	return gw
}

// handler wires the gateway's HTTP surface.
func (gw *gateway) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", gw.keyed)
	mux.HandleFunc("POST /v1/search:batch", gw.keyed)
	mux.HandleFunc("POST /v1/jobs", gw.keyed)
	mux.HandleFunc("GET /v1/jobs", gw.jobsList)
	mux.HandleFunc("GET /v1/jobs/{id}", gw.jobByID)
	mux.HandleFunc("DELETE /v1/jobs/{id}", gw.jobByID)
	mux.HandleFunc("GET /v1/jobs/{id}/events", gw.jobByID)
	mux.HandleFunc("GET /v1/models", gw.anyReplica)
	mux.HandleFunc("GET /v1/healthz", gw.healthz)
	mux.HandleFunc("GET /metrics", gw.metrics)
	th := trace.Handler(gw.cfg.rec)
	mux.Handle("GET /v1/traces", th)
	mux.Handle("GET /v1/traces/", th)
	return gw.withObs(mux)
}

// ---------------------------------------------------------------------------
// Routing

// routeKey computes the consistent-hash identity of one request,
// mirroring the engine's cache key: graph fingerprint × device count ×
// cluster preset × result-changing options. Worker counts are excluded
// (results are worker-independent), so differently-paced requests for
// one plan land on one replica and hit its cache. Unparseable bodies
// hash raw — stably, so even a request the replica will 400 routes
// consistently; batches hash as a unit.
func (gw *gateway) routeKey(path string, body []byte) string {
	if strings.HasSuffix(path, ":batch") {
		return "batch:" + string(body)
	}
	var req service.SearchRequest
	if err := json.Unmarshal(body, &req); err == nil {
		if fp, ok := gw.fingerprint(req); ok {
			return fmt.Sprintf("%s|%d|%s|%v|%d", fp, req.GPUs, req.Cluster, req.Exhaustive, req.TimeBudgetMS)
		}
	}
	return "raw:" + string(body)
}

// fingerprint resolves a request's structural graph fingerprint — the
// same identity the replicas key their caches and stores by, so routing
// is stable under model renames and across spec-vs-model phrasing of
// the same graph. Registered models are memoized; inline specs are
// parsed per request (bounded by maxBodyBytes).
func (gw *gateway) fingerprint(req service.SearchRequest) (string, bool) {
	if req.Spec != "" {
		g, err := graphio.Parse(strings.NewReader(req.Spec))
		if err != nil {
			return "", false
		}
		return g.Fingerprint(), true
	}
	if req.Model == "" {
		return "", false
	}
	if v, ok := gw.fps.Load(req.Model); ok {
		return v.(string), true
	}
	g, err := models.Build(req.Model)
	if err != nil {
		return "", false
	}
	fp := g.Fingerprint()
	gw.fps.Store(req.Model, fp)
	return fp, true
}

// candidates orders every replica for one key: the ring order, healthy
// replicas first. Unhealthy replicas stay on the tail as a last resort
// — if the whole fleet looks down, trying beats a blind 502.
func (gw *gateway) candidates(key string) []*replicaState {
	ringOrder := gw.ring.order(key)
	out := make([]*replicaState, 0, len(ringOrder))
	for _, i := range ringOrder {
		if gw.replicas[i].healthy.Load() {
			out = append(out, gw.replicas[i])
		}
	}
	for _, i := range ringOrder {
		if !gw.replicas[i].healthy.Load() {
			out = append(out, gw.replicas[i])
		}
	}
	return out
}

// healthyFirst is candidates for requests with no routing identity.
func (gw *gateway) healthyFirst() []*replicaState {
	out := make([]*replicaState, 0, len(gw.replicas))
	for _, r := range gw.replicas {
		if r.healthy.Load() {
			out = append(out, r)
		}
	}
	for _, r := range gw.replicas {
		if !r.healthy.Load() {
			out = append(out, r)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Proxying

// keyed proxies one body-routed request (search, batch, job submit) to
// its key's replica, failing over along the ring.
func (gw *gateway) keyed(w http.ResponseWriter, r *http.Request) {
	gw.requests.Add(1)
	if !gw.allow(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeJSONErr(w, http.StatusBadRequest, fmt.Sprintf("read request body: %v", err))
		return
	}
	gw.forward(w, r, body, gw.candidates(gw.routeKey(r.URL.Path, body)))
}

// jobByID proxies status/cancel/events for one job to the replica that
// owns it — the one its submit was routed to — and otherwise probes the
// fleet: the owner is unknown after a gateway restart, and a pinned
// owner may disclaim the job, because a replica restarted with durable
// jobs may see its orphans adopted by a shared-corpus peer. The pinned
// owner is asked first, then every other replica, healthy first. A 404
// or a transport failure moves on (and drops the pin when it was the
// pinned owner's answer); any other answer is relayed, and only a
// successful one pins the job to the replica that gave it.
func (gw *gateway) jobByID(w http.ResponseWriter, r *http.Request) {
	gw.requests.Add(1)
	if !gw.allow(w, r) {
		return
	}
	id := r.PathValue("id")
	pinned := gw.owners.get(id)
	cands := gw.healthyFirst()
	if pinned != nil {
		cands = append([]*replicaState{pinned}, slices.DeleteFunc(cands, func(c *replicaState) bool { return c == pinned })...)
	}
	for _, rep := range cands {
		resp, err := gw.send(r, rep, nil)
		if err == nil && resp.StatusCode != http.StatusNotFound {
			if resp.StatusCode/100 == 2 {
				// Only a successful answer proves ownership: a 5xx/503 from
				// a replica that merely happens to be unwell must not pin
				// the job to it.
				gw.owners.put(id, rep)
			}
			gw.relay(w, rep, resp)
			return
		}
		if err != nil {
			if r.Context().Err() != nil {
				return // the client went away; nothing to answer
			}
			gw.noteSendFailure(rep, err)
		} else {
			resp.Body.Close()
		}
		if rep == pinned {
			gw.owners.drop(id)
		}
	}
	writeJSONErr(w, http.StatusNotFound, fmt.Sprintf("job %q not found on any replica", id))
}

// jobsList merges the job listings of the replicas marked healthy into
// one fleet view. Unhealthy replicas are skipped, not tried last: one
// that is down but still accepts connections would stall the whole
// listing on the untimed proxy client.
func (gw *gateway) jobsList(w http.ResponseWriter, r *http.Request) {
	gw.requests.Add(1)
	if !gw.allow(w, r) {
		return
	}
	merged := make([]json.RawMessage, 0)
	reached := false
	for _, rep := range gw.replicas {
		if !rep.healthy.Load() {
			continue
		}
		resp, err := gw.send(r, rep, nil)
		if err != nil {
			gw.noteSendFailure(rep, err)
			continue
		}
		var body struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		// Unbounded: the replica bounds its listing (-max-finished).
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode/100 != 2 {
			continue
		}
		reached = true
		rep.proxied.Add(1)
		merged = append(merged, body.Jobs...)
	}
	if !reached {
		writeJSONErr(w, http.StatusBadGateway, "no replica reachable")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"jobs": merged})
}

// anyReplica proxies a replica-agnostic request to whichever healthy
// replica answers first.
func (gw *gateway) anyReplica(w http.ResponseWriter, r *http.Request) {
	gw.requests.Add(1)
	if !gw.allow(w, r) {
		return
	}
	gw.forward(w, r, nil, gw.healthyFirst())
}

// forward tries candidates in order until one answers, relaying its
// response. A replica that cannot be reached is marked unhealthy
// (passively; the active checker can restore it) and the next ring node
// is tried — transport failures only, never an answered request.
// Job submissions are not idempotent, so they fail over only on dial
// errors (the request provably never reached the replica); a
// mid-flight failure could mean the job was accepted, and replaying it
// would enqueue a duplicate. Searches are deterministic and cached, so
// any transport failure fails over. An accepted submit pins its job to
// the answering replica from the Location header the daemon sets.
func (gw *gateway) forward(w http.ResponseWriter, r *http.Request, body []byte, cands []*replicaState) {
	submit := r.Method == http.MethodPost && r.URL.Path == "/v1/jobs"
	for n, rep := range cands {
		resp, err := gw.send(r, rep, body)
		if err != nil {
			if r.Context().Err() != nil {
				return // the client went away; nothing to answer
			}
			gw.noteSendFailure(rep, err)
			if submit && !isDialError(err) {
				writeJSONErr(w, http.StatusBadGateway,
					fmt.Sprintf("replica %s failed mid-submit; the job may or may not be queued there", rep.url))
				return
			}
			if n < len(cands)-1 {
				gw.failovers.Add(1)
				gw.cfg.logf("replica %s unreachable (%v), failing over", rep.url, err)
			}
			continue
		}
		if id, ok := strings.CutPrefix(resp.Header.Get("Location"), "/v1/jobs/"); submit && ok && id != "" {
			gw.owners.put(id, rep)
		}
		gw.relay(w, rep, resp)
		return
	}
	writeJSONErr(w, http.StatusBadGateway, "no replica reachable")
}

// relay streams one replica response to the client as it arrives,
// never buffering or capping it. An SSE stream is flushed after every
// read, which keeps job events live.
func (gw *gateway) relay(w http.ResponseWriter, rep *replicaState, resp *http.Response) {
	defer resp.Body.Close()
	rep.proxied.Add(1)
	h := w.Header()
	for k, vs := range resp.Header {
		if hopByHop(k) {
			continue
		}
		h[k] = vs
	}
	h.Set(replicaHeader, rep.url)
	w.WriteHeader(resp.StatusCode)
	var dst io.Writer = w
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		dst = flushWriter{w}
	}
	_, _ = io.Copy(dst, resp.Body)
}

// flushWriter flushes the response after every write.
type flushWriter struct{ w http.ResponseWriter }

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	_ = http.NewResponseController(f.w).Flush()
	return n, err
}

// send issues one proxied request to a replica.
func (gw *gateway) send(r *http.Request, rep *replicaState, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, rep.url+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range r.Header {
		if hopByHop(k) || strings.EqualFold(k, "Host") {
			continue
		}
		out.Header[k] = vs
	}
	// When this request carries a gateway span, rewrite the propagation
	// headers so the replica's root parents under the gateway hop (same
	// trace ID; the gateway span as parent). An untraced request keeps
	// whatever the client sent.
	trace.Inject(r.Context(), out.Header)
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		prior := r.Header.Get("X-Forwarded-For")
		if prior != "" {
			host = prior + ", " + host
		}
		out.Header.Set("X-Forwarded-For", host)
	}
	return gw.proxy.Do(out)
}

// isDialError reports whether a transport failure happened before any
// byte reached the replica (connection refused, no route) — the only
// failures safe to replay for non-idempotent requests.
func isDialError(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// noteSendFailure records a transport failure against a replica and
// marks it down until the active checker clears it.
func (gw *gateway) noteSendFailure(rep *replicaState, err error) {
	rep.proxyErrors.Add(1)
	rep.healthy.Store(false)
	rep.setErr(err)
}

// hopByHop reports headers that must not cross a proxy.
func hopByHop(k string) bool {
	switch http.CanonicalHeaderKey(k) {
	case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
		"Te", "Trailer", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Rate limiting

// allow admits one request through the per-client rate limiter, or
// answers 429 with Retry-After and reports false.
func (gw *gateway) allow(w http.ResponseWriter, r *http.Request) bool {
	if gw.limiter == nil {
		return true
	}
	key := httpobs.Client(r)
	ok, wait := gw.limiter.allow(key, time.Now())
	if ok {
		return true
	}
	gw.rateLimited.Add(1)
	secs := retryAfterSeconds(wait)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSONErr(w, http.StatusTooManyRequests,
		fmt.Sprintf("rate limit exceeded for client %q, retry after %ds", key, secs))
	return false
}

// ---------------------------------------------------------------------------
// Health

// checkAll probes every replica's /v1/healthz once. The status code
// alone decides: the body is the replica's own statistics, which it
// serves itself.
func (gw *gateway) checkAll(ctx context.Context) {
	for _, rep := range gw.replicas {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/v1/healthz", nil)
		if err != nil {
			continue
		}
		resp, err := gw.health.Do(req)
		if err != nil {
			if rep.healthy.CompareAndSwap(true, false) {
				gw.cfg.logf("replica %s down: %v", rep.url, err)
			}
			rep.setErr(err)
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode/100 == 2 {
			rep.setErr(nil)
			if rep.healthy.CompareAndSwap(false, true) {
				gw.cfg.logf("replica %s back up", rep.url)
			}
		} else {
			if rep.healthy.CompareAndSwap(true, false) {
				gw.cfg.logf("replica %s unhealthy: status %d", rep.url, resp.StatusCode)
			}
			rep.setErr(fmt.Errorf("healthz returned %d", resp.StatusCode))
		}
	}
}

// runHealth actively checks the fleet until ctx dies.
func (gw *gateway) runHealth(ctx context.Context) {
	t := time.NewTicker(healthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			gw.checkAll(ctx)
		}
	}
}

// ---------------------------------------------------------------------------
// Introspection

// replicaHealth is one replica's row in the gateway's health view. The
// replica's own counters are not mirrored: its /v1/healthz and /metrics
// serve them.
type replicaHealth struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	LastError string `json:"last_error,omitempty"`
}

// healthz answers the gateway's fleet view: 200 while at least one
// replica is healthy, 503 when none is.
func (gw *gateway) healthz(w http.ResponseWriter, r *http.Request) {
	rows := make([]replicaHealth, 0, len(gw.replicas))
	healthy := 0
	for _, rep := range gw.replicas {
		row := replicaHealth{URL: rep.url, Healthy: rep.healthy.Load(), LastError: rep.errString()}
		if row.Healthy {
			healthy++
		}
		rows = append(rows, row)
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case healthy == 0:
		status = "unavailable"
		code = http.StatusServiceUnavailable
	case healthy < len(rows):
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{
		"status":              status,
		"replicas":            rows,
		"fleet_peers_healthy": healthy,
		"requests_total":      gw.requests.Load(),
		"rate_limited_total":  gw.rateLimited.Load(),
		"failovers_total":     gw.failovers.Load(),
	})
}

// metrics serves the gateway's route counters in Prometheus text form.
func (gw *gateway) metrics(w http.ResponseWriter, r *http.Request) {
	m := promtext.New()
	m.Counter("tapas_gateway_requests_total", "Requests accepted for routing.", float64(gw.requests.Load()), nil)
	m.Counter("tapas_gateway_rate_limited_total", "Requests answered 429 by the per-client limiter.", float64(gw.rateLimited.Load()), nil)
	m.Counter("tapas_gateway_failovers_total", "Requests moved to the next ring node after a transport failure.", float64(gw.failovers.Load()), nil)
	m.Gauge("tapas_gateway_job_owners", "Job-to-replica stickiness entries resident.", float64(gw.owners.len()), nil)
	healthy := 0
	for _, rep := range gw.replicas {
		l := promtext.Labels{"replica": rep.url}
		m.Counter("tapas_gateway_proxied_total", "Responses relayed, per replica.", float64(rep.proxied.Load()), l)
		m.Counter("tapas_gateway_proxy_errors_total", "Transport failures, per replica.", float64(rep.proxyErrors.Load()), l)
		up := 0.0
		if rep.healthy.Load() {
			up = 1
			healthy++
		}
		m.Gauge("tapas_gateway_replica_healthy", "1 while the replica passes health checks.", up, l)
	}
	m.Gauge("tapas_gateway_fleet_peers_healthy", "Replicas currently passing health checks.", float64(healthy), nil)
	m.Histogram("tapas_request_duration_seconds",
		"Proxied request latency by wall clock, all routed endpoints.", gw.reqHist, nil)
	promtext.AddRuntime(m)
	w.Header().Set("Content-Type", promtext.ContentType)
	_, _ = m.WriteTo(w)
}

// writeJSONErr emits the daemon-compatible JSON error envelope.
func writeJSONErr(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// ---------------------------------------------------------------------------
// Job-owner stickiness

// ownerTable remembers which replica owns each submitted job, FIFO
// bounded (job IDs are unguessable and short-lived; on overflow or
// gateway restart the probe path recovers ownership).
type ownerTable struct {
	mu    sync.Mutex
	m     map[string]*replicaState
	order []string
	max   int
}

func newOwnerTable(max int) *ownerTable {
	return &ownerTable{m: make(map[string]*replicaState), max: max}
}

func (o *ownerTable) put(id string, rep *replicaState) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.m[id]; !ok {
		o.order = append(o.order, id)
		for len(o.order) > o.max {
			delete(o.m, o.order[0])
			o.order = o.order[1:]
		}
	}
	o.m[id] = rep
}

// drop forgets a pin proven stale (the pinned replica disclaimed or
// could not answer for the job), so the next lookup probes afresh.
func (o *ownerTable) drop(id string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.m[id]; !ok {
		return
	}
	delete(o.m, id)
	for i, other := range o.order {
		if other == id {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
}

// get returns the replica pinned as id's owner, nil when none is.
func (o *ownerTable) get(id string) *replicaState {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m[id]
}

func (o *ownerTable) len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.m)
}
