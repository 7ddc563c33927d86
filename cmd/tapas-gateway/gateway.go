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
	"net/url"
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
// debugging, tests, and the CI smoke's routing-stability check.
const replicaHeader = "X-Tapas-Replica"

const (
	// vnodes is the number of virtual nodes per replica on the hash ring.
	vnodes = 64
	// healthTimeout bounds one replica health check.
	healthTimeout = 2 * time.Second
	// jobTableSize is how many job-to-replica pins are retained.
	jobTableSize = 4096
)

// gatewayConfig sizes a gateway. newGateway fills defaults for zero
// values.
type gatewayConfig struct {
	replicas       []string
	healthInterval time.Duration // active health-check period (default 2s)
	rate           float64       // tokens/second per client, bucket depth max(1, 2*rate); 0 disables rate limiting
	logf           func(string, ...any)

	// rec is the gateway's trace flight recorder; nil disables tracing
	// (the /v1/traces endpoints then answer empty).
	rec *trace.Recorder
	// traceSlow logs a slow_request line for requests at least this
	// long; 0 disables.
	traceSlow time.Duration
	// logRequests emits one key=value log line per proxied request.
	logRequests bool
}

// replicaState is one backend daemon as the gateway sees it. States are
// keyed by URL and survive fleet updates: a PUT /v1/fleet that keeps a
// replica keeps its health bit and counters.
type replicaState struct {
	url     string
	healthy atomic.Bool
	lastErr atomic.Pointer[string]

	proxied     atomic.Uint64 // responses relayed from this replica
	proxyErrors atomic.Uint64 // transport failures against it

	// stats is the replica's last /v1/healthz answer that decoded (nil
	// until one does): the fleet view's task and replication rows and
	// sums derive from it, so aggregating costs no extra round trips.
	stats atomic.Pointer[service.Stats]
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

// fleetView is one immutable generation of the replica set and its
// consistent-hash ring. Routing paths snapshot it once per request;
// PUT /v1/fleet swaps in a new generation atomically.
type fleetView struct {
	replicas []*replicaState
	ring     *hashRing
}

func newFleetView(reps []*replicaState) *fleetView {
	return &fleetView{
		replicas: reps,
		ring:     newRing(len(reps), vnodes, func(i int) string { return reps[i].url }),
	}
}

// byURL resolves a replica in this view, nil when it left the fleet.
func (v *fleetView) byURL(u string) *replicaState {
	for _, r := range v.replicas {
		if r.url == u {
			return r
		}
	}
	return nil
}

// gateway routes the v1 API across a fleet of tapas-serve replicas:
// consistent-hash routing on the search identity (so each replica's
// memory cache concentrates on its share of the key space), active
// health checks with ring-order failover, per-client token-bucket rate
// limiting, job-owner stickiness for the async API, and hot fleet
// reload via PUT /v1/fleet. Identical concurrent searches share one
// key, hence one replica, whose engine joins them onto one search.
type gateway struct {
	cfg     gatewayConfig
	view    atomic.Pointer[fleetView]
	fleetMu sync.Mutex // serializes fleet updates
	limiter *limiter   // nil when disabled

	proxy  *http.Client // no timeout: searches run long; request contexts bound it
	health *http.Client

	owners *ownerTable
	fps    sync.Map // model name → graph fingerprint

	requests     atomic.Uint64
	rateLimited  atomic.Uint64
	failovers    atomic.Uint64
	fleetUpdates atomic.Uint64

	reqHist *promtext.Histogram // tapas_request_duration_seconds
}

func newGateway(cfg gatewayConfig) *gateway {
	if cfg.healthInterval <= 0 {
		cfg.healthInterval = 2 * time.Second
	}
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
	reps := make([]*replicaState, 0, len(cfg.replicas))
	for _, u := range cfg.replicas {
		rs := &replicaState{url: strings.TrimRight(u, "/")}
		rs.healthy.Store(true) // optimistic until the first check
		reps = append(reps, rs)
	}
	gw.view.Store(newFleetView(reps))
	if cfg.rate > 0 {
		// A bucket holds two seconds of tokens: a client may burst twice
		// its rate, and never less than one request.
		gw.limiter = newLimiter(cfg.rate, int(math.Max(1, 2*cfg.rate)))
	}
	return gw
}

// fleet snapshots the current replica generation.
func (gw *gateway) fleet() *fleetView { return gw.view.Load() }

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
	mux.HandleFunc("GET /v1/fleet", gw.fleetGet)
	mux.HandleFunc("PUT /v1/fleet", gw.fleetPut)
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

// candidates orders every replica of one fleet generation for one key:
// the ring order, healthy replicas first. Unhealthy replicas stay on
// the tail as a last resort — if the whole fleet looks down, trying
// beats a blind 502.
func (v *fleetView) candidates(key string) []*replicaState {
	ringOrder := v.ring.order(key)
	out := make([]*replicaState, 0, len(ringOrder))
	for _, i := range ringOrder {
		if v.replicas[i].healthy.Load() {
			out = append(out, v.replicas[i])
		}
	}
	for _, i := range ringOrder {
		if !v.replicas[i].healthy.Load() {
			out = append(out, v.replicas[i])
		}
	}
	return out
}

// healthyFirst is candidates for requests with no routing identity.
func (v *fleetView) healthyFirst() []*replicaState {
	out := make([]*replicaState, 0, len(v.replicas))
	for _, r := range v.replicas {
		if r.healthy.Load() {
			out = append(out, r)
		}
	}
	for _, r := range v.replicas {
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
	gw.forward(w, r, body, gw.fleet().candidates(gw.routeKey(r.URL.Path, body)))
}

// jobByID proxies status/cancel/events for one job to the replica that
// owns it — the one its submit was routed to — and otherwise probes the
// fleet: the owner is unknown after a gateway restart or fleet update,
// and a pinned owner may disclaim the job, because a replica restarted
// with durable jobs may see its orphans adopted by a shared-corpus peer.
// The pinned owner is asked first, then every other replica, healthy
// first. A 404 or a transport failure moves on (and drops the pin when
// it was the pinned owner's answer); any other answer is relayed, and
// only a successful one pins the job to the replica that gave it.
func (gw *gateway) jobByID(w http.ResponseWriter, r *http.Request) {
	gw.requests.Add(1)
	if !gw.allow(w, r) {
		return
	}
	view := gw.fleet()
	id := r.PathValue("id")
	pinned, _ := gw.owners.get(id)
	cands := view.healthyFirst()
	if owner := view.byURL(pinned); owner != nil {
		cands = append([]*replicaState{owner}, slices.DeleteFunc(cands, func(c *replicaState) bool { return c == owner })...)
	} else if pinned != "" {
		gw.owners.drop(id) // the pinned replica left the fleet
	}
	for _, rep := range cands {
		resp, err := gw.send(r, rep, nil)
		if err == nil && resp.StatusCode != http.StatusNotFound {
			if resp.StatusCode/100 == 2 {
				// Only a successful answer proves ownership: a 5xx/503 from
				// a replica that merely happens to be unwell must not pin
				// the job to it.
				gw.owners.put(id, rep.url)
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
		if rep.url == pinned {
			gw.owners.drop(id)
		}
	}
	writeJSONErr(w, http.StatusNotFound, fmt.Sprintf("job %q not found on any replica", id))
}

// jobsList merges every healthy replica's job listing into one fleet
// view.
func (gw *gateway) jobsList(w http.ResponseWriter, r *http.Request) {
	gw.requests.Add(1)
	if !gw.allow(w, r) {
		return
	}
	merged := make([]json.RawMessage, 0)
	reached := false
	for _, rep := range gw.fleet().healthyFirst() {
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
	gw.forward(w, r, nil, gw.fleet().healthyFirst())
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
			gw.owners.put(id, rep.url)
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
// Fleet reload

// fleetGet answers the current replica set and its health — the same
// rows healthz serves, without the gateway's own counters.
func (gw *gateway) fleetGet(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{
		"replicas":      gw.replicaRows(gw.fleet()),
		"fleet_updates": gw.fleetUpdates.Load(),
	})
}

// fleetPut hot-reloads the replica ring: the body's replica list
// replaces the current fleet, the consistent-hash ring is rebuilt, and
// the new replicas are health-probed before the call returns — so an
// autoscaler can grow or shrink the fleet without bouncing the proxy.
// Replicas present in both generations keep their state (health,
// counters, in-flight requests); job pins onto removed replicas are
// dropped lazily by the ownership probe.
func (gw *gateway) fleetPut(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Replicas []string `json:"replicas"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeJSONErr(w, http.StatusBadRequest, fmt.Sprintf("decode fleet: %v", err))
		return
	}
	if len(req.Replicas) == 0 {
		writeJSONErr(w, http.StatusBadRequest, "fleet must list at least one replica")
		return
	}
	urls := make([]string, 0, len(req.Replicas))
	seen := make(map[string]bool)
	for _, raw := range req.Replicas {
		u, err := url.Parse(strings.TrimSpace(raw))
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			writeJSONErr(w, http.StatusBadRequest, fmt.Sprintf("replica %q is not an http(s) URL", raw))
			return
		}
		clean := strings.TrimRight(u.String(), "/")
		if !seen[clean] {
			seen[clean] = true
			urls = append(urls, clean)
		}
	}

	gw.fleetMu.Lock()
	cur := gw.fleet()
	reps := make([]*replicaState, 0, len(urls))
	added := 0
	for _, u := range urls {
		if rs := cur.byURL(u); rs != nil {
			reps = append(reps, rs) // carry state across the update
			continue
		}
		rs := &replicaState{url: u}
		rs.healthy.Store(true)
		reps = append(reps, rs)
		added++
	}
	next := newFleetView(reps)
	gw.view.Store(next)
	gw.fleetUpdates.Add(1)
	gw.fleetMu.Unlock()
	gw.cfg.logf("fleet updated: %d replicas (%d new, %d dropped)", len(reps), added, len(cur.replicas)-(len(reps)-added))

	// Probe the new generation before answering, so the response's
	// health bits are real, not the optimistic default.
	probeCtx, cancel := context.WithTimeout(r.Context(), healthTimeout)
	gw.checkView(probeCtx, next)
	cancel()

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{
		"replicas":      gw.replicaRows(next),
		"fleet_updates": gw.fleetUpdates.Load(),
	})
}

// ---------------------------------------------------------------------------
// Health

// checkAll probes the current fleet generation's /v1/healthz once.
func (gw *gateway) checkAll(ctx context.Context) { gw.checkView(ctx, gw.fleet()) }

// checkView probes one fleet generation.
func (gw *gateway) checkView(ctx context.Context, v *fleetView) {
	for _, rep := range v.replicas {
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
		var st service.Stats
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st) == nil {
			rep.stats.Store(&st)
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		up := resp.StatusCode/100 == 2
		if up {
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
	t := time.NewTicker(gw.cfg.healthInterval)
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

// replicaHealth is one replica's row in the gateway's health view.
type replicaHealth struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	LastError string `json:"last_error,omitempty"`
	// TasksExecuted/TasksFailed mirror the replica's /v1/tasks counters
	// as of its last health check — the fleet's distributed cold-search
	// activity at a glance.
	TasksExecuted uint64 `json:"tasks_executed"`
	TasksFailed   uint64 `json:"tasks_failed"`
	// Replication mirrors the replica's store-replication counters as
	// of its last health check; nil when it runs unreplicated.
	Replication *replicaReplication `json:"replication,omitempty"`
}

// replicaReplication is the replicated-corpus slice of one replica's
// healthz, as mirrored by the gateway.
type replicaReplication struct {
	PeersHealthy uint64 `json:"peers_healthy"`
	FanoutWrites uint64 `json:"fanout_writes"`
	RepairHits   uint64 `json:"repair_hits"`
}

// replicaRows renders one fleet generation's health rows.
func (gw *gateway) replicaRows(v *fleetView) []replicaHealth {
	rows := make([]replicaHealth, 0, len(v.replicas))
	for _, rep := range v.replicas {
		row := replicaHealth{URL: rep.url, Healthy: rep.healthy.Load(), LastError: rep.errString()}
		if st := rep.stats.Load(); st != nil {
			row.TasksExecuted, row.TasksFailed = st.TasksExecuted, st.TasksFailed
			if rp := st.Replication; rp != nil {
				row.Replication = &replicaReplication{
					PeersHealthy: uint64(rp.PeersHealthy),
					FanoutWrites: rp.FanoutWrites,
					RepairHits:   rp.RepairHits,
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// fleetTotals are the sums over one generation's rows that healthz and
// /metrics both report.
type fleetTotals struct {
	healthy, replicated        int
	tasksExecuted, tasksFailed uint64
	fanoutWrites, repairHits   uint64
}

func totals(rows []replicaHealth) fleetTotals {
	var t fleetTotals
	for _, row := range rows {
		if row.Healthy {
			t.healthy++
		}
		t.tasksExecuted += row.TasksExecuted
		t.tasksFailed += row.TasksFailed
		if rp := row.Replication; rp != nil {
			t.replicated++
			t.fanoutWrites += rp.FanoutWrites
			t.repairHits += rp.RepairHits
		}
	}
	return t
}

// healthz answers the gateway's fleet view: 200 while at least one
// replica is healthy, 503 when none is.
func (gw *gateway) healthz(w http.ResponseWriter, r *http.Request) {
	rows := gw.replicaRows(gw.fleet())
	t := totals(rows)
	status := "ok"
	code := http.StatusOK
	switch {
	case t.healthy == 0:
		status = "unavailable"
		code = http.StatusServiceUnavailable
	case t.healthy < len(rows):
		status = "degraded"
	}
	body := map[string]any{
		"status":              status,
		"replicas":            rows,
		"fleet_peers_healthy": t.healthy,
		"tasks_executed":      t.tasksExecuted,
		"tasks_failed":        t.tasksFailed,
		"requests_total":      gw.requests.Load(),
		"rate_limited_total":  gw.rateLimited.Load(),
		"failovers_total":     gw.failovers.Load(),
		"fleet_updates":       gw.fleetUpdates.Load(),
	}
	if t.replicated > 0 {
		body["replication"] = map[string]any{
			"replicas":      t.replicated,
			"fanout_writes": t.fanoutWrites,
			"repair_hits":   t.repairHits,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

// metrics serves the gateway's route counters in Prometheus text form.
func (gw *gateway) metrics(w http.ResponseWriter, r *http.Request) {
	view := gw.fleet()
	rows := gw.replicaRows(view)
	t := totals(rows)
	m := promtext.New()
	m.Counter("tapas_gateway_requests_total", "Requests accepted for routing.", float64(gw.requests.Load()), nil)
	m.Counter("tapas_gateway_rate_limited_total", "Requests answered 429 by the per-client limiter.", float64(gw.rateLimited.Load()), nil)
	m.Counter("tapas_gateway_failovers_total", "Requests moved to the next ring node after a transport failure.", float64(gw.failovers.Load()), nil)
	m.Counter("tapas_gateway_fleet_updates_total", "Hot fleet reloads applied via PUT /v1/fleet.", float64(gw.fleetUpdates.Load()), nil)
	m.Gauge("tapas_gateway_job_owners", "Job-to-replica stickiness entries resident.", float64(gw.owners.len()), nil)
	for i, rep := range view.replicas {
		row := rows[i]
		l := promtext.Labels{"replica": rep.url}
		m.Counter("tapas_gateway_proxied_total", "Responses relayed, per replica.", float64(rep.proxied.Load()), l)
		m.Counter("tapas_gateway_proxy_errors_total", "Transport failures, per replica.", float64(rep.proxyErrors.Load()), l)
		m.Counter("tapas_gateway_replica_tasks_executed_total", "Prefix tasks the replica executed for coordinators, as of its last health check.", float64(row.TasksExecuted), l)
		m.Counter("tapas_gateway_replica_tasks_failed_total", "Rejected or failed /v1/tasks batches on the replica, as of its last health check.", float64(row.TasksFailed), l)
		if rp := row.Replication; rp != nil {
			m.Gauge("tapas_gateway_replica_store_peers_healthy", "Replication peers the replica reports reachable, as of its last health check.", float64(rp.PeersHealthy), l)
		}
		up := 0.0
		if row.Healthy {
			up = 1
		}
		m.Gauge("tapas_gateway_replica_healthy", "1 while the replica passes health checks.", up, l)
	}
	m.Gauge("tapas_gateway_fleet_peers_healthy", "Replicas currently passing health checks.", float64(t.healthy), nil)
	m.Counter("tapas_gateway_replication_fanout_writes_total", "Store fanout writes summed across the fleet's last health checks.", float64(t.fanoutWrites), nil)
	m.Counter("tapas_gateway_replication_repair_hits_total", "Store read-repairs summed across the fleet's last health checks.", float64(t.repairHits), nil)
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
// bounded (job IDs are unguessable and short-lived; on overflow,
// gateway restart, or fleet update the probe path recovers ownership).
// Owners are pinned by URL, not index, so a fleet reload cannot
// silently repoint a pin at a different replica.
type ownerTable struct {
	mu    sync.Mutex
	m     map[string]string
	order []string
	max   int
}

func newOwnerTable(max int) *ownerTable {
	return &ownerTable{m: make(map[string]string), max: max}
}

func (o *ownerTable) put(id, url string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.m[id]; !ok {
		o.order = append(o.order, id)
		for len(o.order) > o.max {
			delete(o.m, o.order[0])
			o.order = o.order[1:]
		}
	}
	o.m[id] = url
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

func (o *ownerTable) get(id string) (string, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	u, ok := o.m[id]
	return u, ok
}

func (o *ownerTable) len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.m)
}
