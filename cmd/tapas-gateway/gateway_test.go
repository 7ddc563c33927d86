package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tapas"
	"tapas/internal/httpobs"
	"tapas/service"
	"tapas/store"
	"tapas/store/remotebackend"
	"tapas/store/replicate"
)

// fakeReplica is a canned tapas-serve surface that records which routes
// it answered.
type fakeReplica struct {
	name     string
	srv      *httptest.Server
	searches atomic.Int64
	submits  atomic.Int64
	healthy  atomic.Bool
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	f := &fakeReplica{name: name}
	f.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", func(w http.ResponseWriter, r *http.Request) {
		f.searches.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"schema_version":1,"served_by":%q}`, f.name)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		n := f.submits.Add(1)
		id := fmt.Sprintf("%s-job-%d", f.name, n)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Location", "/v1/jobs/"+id)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"state":"queued"}`, id)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"jobs":[{"id":"%s-job-1","state":"done"}]}`, f.name)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !strings.HasPrefix(id, f.name+"-") {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"service: job not found"}`)
			return
		}
		fmt.Fprintf(w, `{"id":%q,"state":"done","served_by":%q}`, id, f.name)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !strings.HasPrefix(id, f.name+"-") {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"service: job not found"}`)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		fmt.Fprintf(w, "event: progress\ndata: {\"job_id\":%q,\"type\":\"progress\",\"phase\":\"search\"}\n\n", id)
		fl.Flush()
		fmt.Fprintf(w, "event: state\ndata: {\"job_id\":%q,\"type\":\"state\",\"state\":\"done\"}\n\n", id)
		fl.Flush()
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"models":["t5-100M"],"served_by":%q}`, f.name)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// testGateway builds a gateway + server over the given replica URLs.
func testGateway(t *testing.T, cfg gatewayConfig) (*gateway, *httptest.Server) {
	t.Helper()
	gw := newGateway(cfg)
	srv := httptest.NewServer(gw.handler())
	t.Cleanup(srv.Close)
	return gw, srv
}

func postJSON(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRoutingIsHashStable: the same search identity always lands on the
// same replica; distinct identities spread across the fleet.
func TestRoutingIsHashStable(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	urls := []string{fakes[0].srv.URL, fakes[1].srv.URL, fakes[2].srv.URL}
	_, srv := testGateway(t, gatewayConfig{replicas: urls})

	body := `{"model":"t5-100M","gpus":8}`
	var first string
	for i := 0; i < 8; i++ {
		resp, _ := postJSON(t, srv.URL+"/v1/search", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d: status %d", i, resp.StatusCode)
		}
		rep := resp.Header.Get(replicaHeader)
		if rep == "" {
			t.Fatal("no X-Tapas-Replica header on a proxied response")
		}
		if first == "" {
			first = rep
		} else if rep != first {
			t.Fatalf("request %d routed to %s, earlier ones to %s — not hash-stable", i, rep, first)
		}
	}

	// Distinct identities spread: 12 different (model, gpus) keys must
	// touch more than one replica.
	seen := map[string]bool{}
	for gpus := 1; gpus <= 12; gpus++ {
		resp, _ := postJSON(t, srv.URL+"/v1/search", fmt.Sprintf(`{"model":"t5-100M","gpus":%d}`, gpus), nil)
		seen[resp.Header.Get(replicaHeader)] = true
	}
	if len(seen) < 2 {
		t.Errorf("12 distinct keys all landed on one replica: %v", seen)
	}
}

// TestRoutingIsStructural: the gateway routes by graph fingerprint, so
// the same architecture spelled with different node names — or a
// different model name — is one key: it lands on one replica and hits
// that replica's cache.
func TestRoutingIsStructural(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	urls := []string{fakes[0].srv.URL, fakes[1].srv.URL, fakes[2].srv.URL}
	gw, srv := testGateway(t, gatewayConfig{replicas: urls})

	specA := `model alpha\ninput x f32 16 128\ndense fc x 256 relu\ndense out fc 128 none\nloss l out\n`
	specB := `model beta\ninput in0 f32 16 128\ndense h in0 256 relu\ndense y h 128 none\nloss cost y\n`
	bodyA, _ := json.Marshal(map[string]any{"spec": strings.ReplaceAll(specA, `\n`, "\n"), "gpus": 4})
	bodyB, _ := json.Marshal(map[string]any{"spec": strings.ReplaceAll(specB, `\n`, "\n"), "gpus": 4})

	keyA := gw.routeKey("/v1/search", bodyA)
	keyB := gw.routeKey("/v1/search", bodyB)
	if strings.HasPrefix(keyA, "raw:") {
		t.Fatalf("spec did not fingerprint: %q", keyA)
	}
	if keyA != keyB {
		t.Fatalf("renamed spec changed the routing key:\nA: %s\nB: %s", keyA, keyB)
	}

	ra, _ := postJSON(t, srv.URL+"/v1/search", string(bodyA), nil)
	rb, _ := postJSON(t, srv.URL+"/v1/search", string(bodyB), nil)
	if ra.Header.Get(replicaHeader) != rb.Header.Get(replicaHeader) {
		t.Error("structurally identical specs routed to different replicas")
	}
}

// bodyWhoseRingHeadIs searches for a request body whose consistent-hash
// home is the given replica — deterministic pressure for failover
// tests.
func bodyWhoseRingHeadIs(gw *gateway, head int) string {
	for i := 0; ; i++ {
		body := fmt.Sprintf(`{"model":"unknown-%d","gpus":8}`, i)
		if gw.ring.order(gw.routeKey("/v1/search", []byte(body)))[0] == head {
			return body
		}
	}
}

// TestFailoverToNextRingNode: a dead home replica's traffic moves to
// the next ring node; the death is recorded for health and metrics.
func TestFailoverToNextRingNode(t *testing.T) {
	alive := newFakeReplica(t, "alive")
	dead := newFakeReplica(t, "dead")
	deadURL := dead.srv.URL
	dead.srv.Close()
	gw, srv := testGateway(t, gatewayConfig{replicas: []string{deadURL, alive.srv.URL}})

	body := bodyWhoseRingHeadIs(gw, 0) // home = the dead replica
	resp, data := postJSON(t, srv.URL+"/v1/search", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request answered %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(replicaHeader); got != alive.srv.URL {
		t.Errorf("answered by %q, want the surviving replica %q", got, alive.srv.URL)
	}
	if gw.failovers.Load() == 0 {
		t.Error("failover not counted")
	}
	if gw.replicas[0].healthy.Load() {
		t.Error("dead replica not passively marked down")
	}

	// Same identity keeps working (now routed straight to the healthy
	// node, which leads the candidate list).
	resp2, _ := postJSON(t, srv.URL+"/v1/search", body, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-failover request answered %d", resp2.StatusCode)
	}
}

// TestRateLimit429WithRetryAfter: a client that bursts past its bucket
// gets 429 + Retry-After; other clients are unaffected.
func TestRateLimit429WithRetryAfter(t *testing.T) {
	f := newFakeReplica(t, "a")
	gw, srv := testGateway(t, gatewayConfig{replicas: []string{f.srv.URL}, rate: 1}) // bucket depth 2

	body := `{"model":"t5-100M","gpus":8}`
	var limited *http.Response
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, srv.URL+"/v1/search", body, map[string]string{httpobs.ClientHeader: "bursty"})
		if resp.StatusCode == http.StatusTooManyRequests {
			limited = resp
		}
	}
	if limited == nil {
		t.Fatal("3 rapid requests against burst=2 never hit 429")
	}
	if ra := limited.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carried no Retry-After")
	}
	if gw.rateLimited.Load() == 0 {
		t.Error("rate-limited requests not counted")
	}
	if _, metrics := getURL(t, srv.URL+"/metrics"); !strings.Contains(string(metrics), fmt.Sprintf("tapas_gateway_rate_limited_total %d\n", gw.rateLimited.Load())) {
		t.Errorf("/metrics does not report the %d limited requests", gw.rateLimited.Load())
	}
	// A different client principal is untouched.
	resp, _ := postJSON(t, srv.URL+"/v1/search", body, map[string]string{httpobs.ClientHeader: "calm"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("other client caught in the limiter: %d", resp.StatusCode)
	}
}

// TestJobStickinessAndProbe: job status follows the submit's replica;
// a gateway with no memory of the job (restart) probes the fleet and
// still finds it; an unknown job is 404.
func TestJobStickinessAndProbe(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")}
	urls := []string{fakes[0].srv.URL, fakes[1].srv.URL, fakes[2].srv.URL}
	_, srv := testGateway(t, gatewayConfig{replicas: urls})

	resp, data := postJSON(t, srv.URL+"/v1/jobs", `{"model":"t5-100M","gpus":8}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		t.Fatalf("submit response unparseable: %s", data)
	}
	submitReplica := resp.Header.Get(replicaHeader)

	get, body := getURL(t, srv.URL+"/v1/jobs/"+st.ID)
	if get.StatusCode != http.StatusOK || get.Header.Get(replicaHeader) != submitReplica {
		t.Errorf("status fetched from %q (%d), want the submit replica %q",
			get.Header.Get(replicaHeader), get.StatusCode, submitReplica)
	}
	if !strings.Contains(string(body), st.ID) {
		t.Errorf("status body lost the job: %s", body)
	}

	// A fresh gateway (restart: empty owner table) probes and finds it.
	_, srv2 := testGateway(t, gatewayConfig{replicas: urls})
	get2, _ := getURL(t, srv2.URL+"/v1/jobs/"+st.ID)
	if get2.StatusCode != http.StatusOK || get2.Header.Get(replicaHeader) != submitReplica {
		t.Errorf("probe found %q (%d), want %q", get2.Header.Get(replicaHeader), get2.StatusCode, submitReplica)
	}

	// Unknown everywhere → one clean 404.
	get3, body3 := getURL(t, srv.URL+"/v1/jobs/nope-42")
	if get3.StatusCode != http.StatusNotFound || !strings.Contains(string(body3), "not found") {
		t.Errorf("unknown job: %d %s", get3.StatusCode, body3)
	}
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

// TestProbeDoesNotPinOnError: a replica that answers 5xx during an
// ownership probe must not be recorded as the job's owner — only a
// successful answer proves ownership.
func TestProbeDoesNotPinOnError(t *testing.T) {
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	}))
	t.Cleanup(sick.Close)
	owner := newFakeReplica(t, "b")
	gw, srv := testGateway(t, gatewayConfig{replicas: []string{sick.URL, owner.srv.URL}})

	// The probe hits the sick replica first (index order) and relays
	// its error, but must not pin the job to it …
	resp, _ := getURL(t, srv.URL+"/v1/jobs/b-job-7")
	if resp.StatusCode == http.StatusNotFound {
		t.Fatalf("probe swallowed the sick replica's answer: %d", resp.StatusCode)
	}
	if gw.owners.get("b-job-7") != nil && resp.StatusCode/100 != 2 {
		t.Fatal("job pinned to a replica that answered an error")
	}
	// … so once the sick replica is known-down, the probe finds the
	// real owner.
	gw.replicas[0].healthy.Store(false)
	resp2, body := getURL(t, srv.URL+"/v1/jobs/b-job-7")
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(body), `"served_by":"b"`) {
		t.Errorf("real owner not found after the sick replica: %d %s", resp2.StatusCode, body)
	}
	if rep := gw.owners.get("b-job-7"); rep == nil || rep.url != owner.srv.URL {
		t.Errorf("successful probe did not record the owner: %v", rep)
	}
}

// TestStaleStickyPinReprobes: when a replica restarts, its durable jobs
// may be adopted by a different replica — so a pinned owner answering
// 404 means the pin is stale, not that the job is gone. The gateway
// must drop the pin, re-probe the fleet, and re-pin on the replica that
// actually holds the job. (It used to relay the 404 straight to the
// client.)
func TestStaleStickyPinReprobes(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b")}
	urls := []string{fakes[0].srv.URL, fakes[1].srv.URL}
	gw, srv := testGateway(t, gatewayConfig{replicas: urls})

	// The job lives on b, but the gateway still remembers the replica
	// that held it before a restart: a, which will answer 404.
	gw.owners.put("b-job-3", gw.replicas[0])

	get, body := getURL(t, srv.URL+"/v1/jobs/b-job-3")
	if get.StatusCode != http.StatusOK {
		t.Fatalf("stale pin leaked a 404 to the client: %d %s", get.StatusCode, body)
	}
	if got := get.Header.Get(replicaHeader); got != urls[1] {
		t.Errorf("answered by %q, want the adopting replica %q", got, urls[1])
	}
	if rep := gw.owners.get("b-job-3"); rep != gw.replicas[1] {
		t.Errorf("pin not moved to the adopting replica: %v", rep)
	}

	// A job no replica knows still yields one clean 404 even when a
	// stale pin pointed somewhere first.
	gw.owners.put("ghost-job-9", gw.replicas[0])
	get2, _ := getURL(t, srv.URL+"/v1/jobs/ghost-job-9")
	if get2.StatusCode != http.StatusNotFound {
		t.Errorf("vanished job: %d, want 404", get2.StatusCode)
	}
	if gw.owners.get("ghost-job-9") != nil {
		t.Error("vanished job kept its stale pin")
	}
}

// TestRetryAfterSeconds: the limiter's wait must round UP and never
// render as "Retry-After: 0" — clients read zero as "no backoff".
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		wait time.Duration
		want int
	}{
		{0, 1},
		{50 * time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1200 * time.Millisecond, 2},
		{5 * time.Second, 5},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.wait); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.wait, got, c.want)
		}
	}
}

// TestSubmitNotReplayedMidFlight: a job submission whose connection
// dies after reaching a replica is NOT replayed elsewhere (the job may
// have been queued); only dial failures — provably never sent — fail
// over.
func TestSubmitNotReplayedMidFlight(t *testing.T) {
	killer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("no hijack support")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close() // the request arrived, then the replica "crashed"
	}))
	t.Cleanup(killer.Close)
	second := newFakeReplica(t, "b")
	gw, srv := testGateway(t, gatewayConfig{replicas: []string{killer.URL, second.srv.URL}})

	// Make the killer the ring head for this submit.
	var body string
	for i := 0; ; i++ {
		body = fmt.Sprintf(`{"model":"unknown-%d","gpus":8}`, i)
		if gw.ring.order(gw.routeKey("/v1/jobs", []byte(body)))[0] == 0 {
			break
		}
	}
	resp, data := postJSON(t, srv.URL+"/v1/jobs", body, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("mid-flight submit failure answered %d, want 502: %s", resp.StatusCode, data)
	}
	if n := second.submits.Load(); n != 0 {
		t.Errorf("submit replayed onto the second replica %d times — duplicate job risk", n)
	}

	// A dial failure (nothing ever sent) still fails over.
	deadURL := killer.URL
	killer.Close()
	gw2, srv2 := testGateway(t, gatewayConfig{replicas: []string{deadURL, second.srv.URL}})
	var body2 string
	for i := 0; ; i++ {
		body2 = fmt.Sprintf(`{"model":"other-%d","gpus":8}`, i)
		if gw2.ring.order(gw2.routeKey("/v1/jobs", []byte(body2)))[0] == 0 {
			break
		}
	}
	resp2, data2 := postJSON(t, srv2.URL+"/v1/jobs", body2, nil)
	if resp2.StatusCode != http.StatusAccepted {
		t.Errorf("dial-failure submit did not fail over: %d %s", resp2.StatusCode, data2)
	}
}

// TestSSEEventsProxied: the events stream passes through the gateway
// intact (both frames, in order, as SSE).
func TestSSEEventsProxied(t *testing.T) {
	f := newFakeReplica(t, "a")
	_, srv := testGateway(t, gatewayConfig{replicas: []string{f.srv.URL}})

	resp, data := postJSON(t, srv.URL+"/v1/jobs", `{"model":"t5-100M","gpus":8}`, nil)
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit failed: %d %s", resp.StatusCode, data)
	}
	get, body := getURL(t, srv.URL+"/v1/jobs/"+st.ID+"/events")
	if get.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", get.StatusCode)
	}
	if ct := get.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("events content type %q", ct)
	}
	text := string(body)
	if !strings.Contains(text, `"type":"progress"`) || !strings.Contains(text, `"state":"done"`) {
		t.Errorf("stream mangled:\n%s", text)
	}
	if strings.Index(text, "progress") > strings.Index(text, "done") {
		t.Error("events reordered")
	}
}

// TestFleetHealthAndJobsMerge: the gateway health view degrades and
// recovers with the fleet, and GET /v1/jobs merges every replica.
func TestFleetHealthAndJobsMerge(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	gw, srv := testGateway(t, gatewayConfig{replicas: []string{a.srv.URL, b.srv.URL}})
	ctx := context.Background()

	gw.checkAll(ctx)
	resp, body := getURL(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Errorf("healthy fleet: %d %s", resp.StatusCode, body)
	}

	jresp, jbody := getURL(t, srv.URL+"/v1/jobs")
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("jobs merge: %d", jresp.StatusCode)
	}
	if !strings.Contains(string(jbody), "a-job-1") || !strings.Contains(string(jbody), "b-job-1") {
		t.Errorf("fleet job listing incomplete: %s", jbody)
	}

	b.healthy.Store(false)
	gw.checkAll(ctx)
	resp, body = getURL(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status": "degraded"`) {
		t.Errorf("degraded fleet: %d %s", resp.StatusCode, body)
	}

	a.healthy.Store(false)
	gw.checkAll(ctx)
	resp, body = getURL(t, srv.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"status": "unavailable"`) {
		t.Errorf("dead fleet: %d %s", resp.StatusCode, body)
	}

	// Recovery: the active checker brings a replica back.
	a.healthy.Store(true)
	gw.checkAll(ctx)
	if resp, _ := getURL(t, srv.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("fleet did not recover: %d", resp.StatusCode)
	}
}

// TestGatewayMetrics: route counters come out in Prometheus text form,
// and the metric-name and healthz-key sets are pinned: dashboards read
// them by name. The replicas' own counters are not mirrored; each
// replica serves them on its own /metrics and /v1/healthz.
func TestGatewayMetrics(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	gw, srv := testGateway(t, gatewayConfig{replicas: []string{a.srv.URL, b.srv.URL}})
	gw.checkAll(context.Background())
	served, _ := postJSON(t, srv.URL+"/v1/search", `{"model":"t5-100M","gpus":8}`, nil)

	resp, body := getURL(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE tapas_gateway_requests_total counter",
		"tapas_gateway_requests_total 1",
		fmt.Sprintf(`tapas_gateway_proxied_total{replica="%s"} 1`, served.Header.Get(replicaHeader)),
		fmt.Sprintf(`tapas_gateway_replica_healthy{replica="%s"} 1`, b.srv.URL),
		"tapas_gateway_fleet_peers_healthy 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	var families []string
	for _, line := range strings.Split(text, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, name)
		}
	}
	sort.Strings(families)
	wantFamilies := []string{
		"tapas_gateway_failovers_total counter",
		"tapas_gateway_fleet_peers_healthy gauge",
		"tapas_gateway_job_owners gauge",
		"tapas_gateway_proxied_total counter",
		"tapas_gateway_proxy_errors_total counter",
		"tapas_gateway_rate_limited_total counter",
		"tapas_gateway_replica_healthy gauge",
		"tapas_gateway_requests_total counter",
		"tapas_gc_pause_seconds_total counter",
		"tapas_goroutines gauge",
		"tapas_heap_alloc_bytes gauge",
		"tapas_request_duration_seconds histogram",
	}
	if !reflect.DeepEqual(families, wantFamilies) {
		t.Errorf("metric families changed:\n got %q\nwant %q", families, wantFamilies)
	}

	// The same view as JSON: the gateway's counters at the top, one
	// health row per replica.
	_, body = getURL(t, srv.URL+"/v1/healthz")
	var health struct {
		Replicas []map[string]json.RawMessage `json:"replicas"`
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedKeys(keys), []string{"failovers_total", "fleet_peers_healthy", "rate_limited_total",
		"replicas", "requests_total", "status"}; !reflect.DeepEqual(got, want) {
		t.Errorf("healthz keys %q, want %q", got, want)
	}
	if len(health.Replicas) != 2 {
		t.Fatalf("healthz lists %d replica rows, want 2", len(health.Replicas))
	}
	for i, row := range health.Replicas {
		if got, want := sortedKeys(row), []string{"healthy", "url"}; !reflect.DeepEqual(got, want) {
			t.Errorf("row %d keys %q, want %q", i, got, want)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestCrossReplicaStoreHitThroughGateway is the acceptance round trip
// on the real stack: replica A owns a filesystem corpus, replica B owns
// another and replicates with A as its peer over the store peer
// protocol, the gateway fronts both. A plan searched cold through the
// gateway is then answered with store_hit by the *other* replica —
// after a failover, without re-running the search. B's writes fan out
// to A; B reads A's through its index misses.
func TestCrossReplicaStoreHitThroughGateway(t *testing.T) {
	ctx := context.Background()

	// Replica A: an exclusive corpus.
	stA, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	svcA, err := service.New(service.Config{EngineOptions: []tapas.Option{tapas.WithStore(stA)}})
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(service.NewHandler(svcA))
	defer srvA.Close()
	defer svcA.Shutdown(ctx)
	defer stA.Close()

	// Replica B: its own corpus, replicated with A as its peer.
	localB, err := store.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	replB, err := replicate.New(replicate.Options{
		Local:         localB,
		Peers:         []replicate.Peer{{Name: srvA.URL, Backend: remotebackend.New(srvA.URL)}},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer replB.Close()
	stB, err := store.Open(store.Options{Backend: replB})
	if err != nil {
		t.Fatal(err)
	}
	svcB, err := service.New(service.Config{EngineOptions: []tapas.Option{tapas.WithStore(stB)}})
	if err != nil {
		t.Fatal(err)
	}
	srvB := httptest.NewServer(service.NewHandler(svcB))
	defer srvB.Close()
	defer svcB.Shutdown(ctx)
	defer stB.Close()

	gw, gwSrv := testGateway(t, gatewayConfig{replicas: []string{srvA.URL, srvB.URL}})

	// Cold search through the gateway.
	body := `{"model":"twotower-small","gpus":4}`
	resp, data := postJSON(t, gwSrv.URL+"/v1/search", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold search: %d %s", resp.StatusCode, data)
	}
	var cold service.SearchResponse
	if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.StoreHit || cold.CacheHit {
		t.Fatalf("first search through the gateway must be cold: %+v", cold.ResultSummary)
	}
	coldReplica := resp.Header.Get(replicaHeader)

	// Replica affinity: the repeat lands on the same replica and comes
	// out of its memory cache.
	again, data := postJSON(t, gwSrv.URL+"/v1/search", body, nil)
	var cached service.SearchResponse
	if err := json.Unmarshal(data, &cached); err != nil {
		t.Fatal(err)
	}
	if again.Header.Get(replicaHeader) != coldReplica || !cached.CacheHit {
		t.Errorf("repeat search: replica %s (cold: %s), cache_hit %v", again.Header.Get(replicaHeader), coldReplica, cached.CacheHit)
	}

	// The write-behind persist reaches the answering replica's corpus,
	// and from B it fans out to A.
	stA.Flush()
	stB.Flush()
	replB.Flush()

	// Take the answering replica down; the ring fails the same key over
	// to the other one, which must answer from the shared store.
	for _, rep := range gw.replicas {
		if rep.url == coldReplica {
			rep.healthy.Store(false)
		}
	}
	resp2, data2 := postJSON(t, gwSrv.URL+"/v1/search", body, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("failover search: %d %s", resp2.StatusCode, data2)
	}
	warmReplica := resp2.Header.Get(replicaHeader)
	if warmReplica == coldReplica {
		t.Fatalf("failover did not move the key: still %s", warmReplica)
	}
	var warm service.SearchResponse
	if err := json.Unmarshal(data2, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.StoreHit {
		t.Fatalf("replica %s re-ran the search instead of serving the store: %+v",
			warmReplica, warm.ResultSummary)
	}
	if warm.PlanSummary != cold.PlanSummary || warm.Report != cold.Report || warm.CostSeconds != cold.CostSeconds {
		t.Errorf("store answer diverged:\ncold: %+v\nwarm: %+v", cold.ResultSummary, warm.ResultSummary)
	}
}

// liveReplicas stands up n in-process tapas-serve replicas
// (service.NewHandler on httptest) with default configuration.
func liveReplicas(t *testing.T, n int) ([]*service.Service, []string) {
	t.Helper()
	svcs := make([]*service.Service, n)
	urls := make([]string, n)
	for i := range svcs {
		var srv *httptest.Server
		svcs[i], srv = tracedReplica(t, service.Config{})
		urls[i] = srv.URL
	}
	return svcs, urls
}

// TestIdenticalConcurrentSearchesRunOnce: the gateway keeps no dedupe
// of its own. Identical concurrent cold searches share one routing key,
// hence one replica, whose engine runs one search and joins the rest
// onto it (or serves them from its cache once it lands).
func TestIdenticalConcurrentSearchesRunOnce(t *testing.T) {
	_, urls := liveReplicas(t, 2)
	_, gwSrv := testGateway(t, gatewayConfig{replicas: urls})

	const clients = 8
	type answer struct {
		status int
		body   []byte
		err    error
	}
	answers := make([]answer, clients)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func(a *answer) {
			defer wg.Done()
			resp, err := http.Post(gwSrv.URL+"/v1/search", "application/json", strings.NewReader(`{"model":"t5-770M","gpus":8}`))
			if err != nil {
				a.err = err
				return
			}
			defer resp.Body.Close()
			a.status = resp.StatusCode
			a.body, a.err = io.ReadAll(resp.Body)
		}(&answers[i])
	}
	wg.Wait()

	// One answer is the search itself, the others its cache hits: once
	// the cold one's cache_hit flag is flipped, all eight are one body.
	cold := 0
	for i := range answers {
		a := &answers[i]
		if a.err != nil || a.status != http.StatusOK {
			t.Fatalf("search %d: %d %v %s", i, a.status, a.err, a.body)
		}
		if bytes.Contains(a.body, []byte(`"cache_hit": false`)) {
			cold++
			a.body = bytes.Replace(a.body, []byte(`"cache_hit": false`), []byte(`"cache_hit": true`), 1)
		}
	}
	if cold != 1 {
		t.Errorf("%d of %d answers ran cold, want 1", cold, clients)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(answers[i].body, answers[0].body) {
			t.Fatalf("answer %d differs from answer 0", i)
		}
	}

	var sum tapas.CacheStats
	for _, u := range urls {
		var st service.Stats
		_, body := getURL(t, u+"/v1/healthz")
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		sum.Misses += st.Cache.Misses
		sum.Hits += st.Cache.Hits
		sum.Joined += st.Cache.Joined
	}
	if sum.Misses != 1 || sum.Hits+sum.Joined != clients-1 {
		t.Errorf("fleet cache: %d misses, %d hits + %d joined; want 1 miss and %d hits + joined",
			sum.Misses, sum.Hits, sum.Joined, clients-1)
	}
}

// TestLargeBatchRelayedWhole: a batch answer larger than the 8 MB
// request-body bound reaches the client whole — byte-identical to the
// same batch asked of the replica directly.
func TestLargeBatchRelayedWhole(t *testing.T) {
	_, urls := liveReplicas(t, 1)
	_, gwSrv := testGateway(t, gatewayConfig{replicas: urls})

	// Warm the replica's cache so both batches are all hits.
	if resp, data := postJSON(t, urls[0]+"/v1/search", `{"model":"t5-1.4B","gpus":8}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm search: %d %s", resp.StatusCode, data)
	}
	batch := `{"requests":[` + strings.TrimSuffix(strings.Repeat(`{"model":"t5-1.4B","gpus":8},`, 16), ",") + `]}`
	direct, want := postJSON(t, urls[0]+"/v1/search:batch", batch, nil)
	if direct.StatusCode != http.StatusOK || len(want) <= maxBodyBytes {
		t.Fatalf("direct batch: %d, %d bytes; want 200 and more than %d", direct.StatusCode, len(want), maxBodyBytes)
	}
	resp, got := postJSON(t, gwSrv.URL+"/v1/search:batch", batch, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("batch through the gateway: %d, %d bytes; want 200 and the direct answer's %d bytes",
			resp.StatusCode, len(got), len(want))
	}
}

// TestLargeJobListRelayedWhole: the fleet job listing merges replica
// listings larger than the 8 MB request-body bound.
func TestLargeJobListRelayedWhole(t *testing.T) {
	svcs, urls := liveReplicas(t, 1)
	_, gwSrv := testGateway(t, gatewayConfig{replicas: urls})

	const jobs = 20
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < jobs; i++ {
		resp, data := postJSON(t, gwSrv.URL+"/v1/jobs", `{"model":"t5-1.4B","gpus":8}`, nil)
		var st service.JobStatus
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(data, &st) != nil {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, data)
		}
		if _, err := svcs[0].WaitTerminal(ctx, st.ID); err != nil {
			t.Fatalf("job %s: %v", st.ID, err)
		}
	}
	if _, direct := getURL(t, urls[0]+"/v1/jobs"); len(direct) <= maxBodyBytes {
		t.Fatalf("direct listing is %d bytes, want more than %d", len(direct), maxBodyBytes)
	}
	resp, body := getURL(t, gwSrv.URL+"/v1/jobs")
	var list struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job listing through the gateway: %d %.200s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list.Jobs) != jobs {
		t.Errorf("job listing through the gateway: %d jobs (%v), want %d", len(list.Jobs), err, jobs)
	}
	for _, st := range list.Jobs {
		if st.State != service.JobDone {
			t.Errorf("job %s listed %s, want done", st.ID, st.State)
		}
	}
}

// TestJobsListSkipsUnhealthy: GET /v1/jobs merges only the replicas
// the checker marked healthy. One that is down but still accepts
// connections, and never answers its listing, cannot stall the merge;
// with no healthy replica the listing is a 502.
func TestJobsListSkipsUnhealthy(t *testing.T) {
	a := newFakeReplica(t, "a")
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(stuck.Close)
	t.Cleanup(func() { close(release) })
	gw, srv := testGateway(t, gatewayConfig{replicas: []string{stuck.URL, a.srv.URL}})
	gw.checkAll(context.Background())

	client := &http.Client{Timeout: 2 * time.Second}
	list := func() (int, string) {
		t.Helper()
		resp, err := client.Get(srv.URL + "/v1/jobs")
		if err != nil {
			t.Fatalf("job listing: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := list(); code != http.StatusOK || !strings.Contains(body, "a-job-1") {
		t.Errorf("listing with one healthy replica: %d %s", code, body)
	}

	a.healthy.Store(false)
	gw.checkAll(context.Background())
	if code, body := list(); code != http.StatusBadGateway {
		t.Errorf("listing with no healthy replica: %d %s, want 502", code, body)
	}
}

// TestRunWiresFlags starts run() — the whole of main() but the signal
// handler — on a free loopback port: -replicas seeds a fleet that is
// health-checked before traffic is taken, -rate arms the per-client
// limiter (429 + Retry-After for the bursty client only),
// cancelling the context drains to exit 0, and no -replicas or an
// unknown flag is exit 2.
func TestRunWiresFlags(t *testing.T) {
	if code := run(context.Background(), []string{"-addr", "127.0.0.1:0"}, io.Discard, nil); code != 2 {
		t.Errorf("no -replicas: exit %d, want 2", code)
	}
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The health-check period is a constant, so -health-interval is an
	// unknown flag. The context is already done: had the flag parsed,
	// run would drain straight to exit 0.
	stopped, stop := context.WithCancel(ctx)
	stop()
	if code := run(stopped, []string{"-addr", "127.0.0.1:0", "-replicas", a.srv.URL, "-health-interval", "1s"}, io.Discard, nil); code != 2 {
		t.Errorf("-health-interval: exit %d, want 2", code)
	}

	addr := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		args := []string{"-addr", "127.0.0.1:0", "-replicas", a.srv.URL + "," + b.srv.URL, "-rate", "1"}
		exit <- run(ctx, args, io.Discard, func(a string) { addr <- a })
	}()
	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case code := <-exit:
		t.Fatalf("gateway exited %d before listening", code)
	}

	if _, body := getURL(t, base+"/v1/healthz"); !strings.Contains(string(body), `"fleet_peers_healthy": 2`) {
		t.Errorf("fleet not probed before traffic: %s", body)
	}
	search := func(client string) *http.Response {
		resp, _ := postJSON(t, base+"/v1/search", `{"model":"t5-100M","gpus":8}`, map[string]string{httpobs.ClientHeader: client})
		return resp
	}
	var limited *http.Response
	for i := 0; i < 3; i++ {
		if resp := search("bursty"); resp.StatusCode == http.StatusTooManyRequests {
			limited = resp
		}
	}
	if limited == nil || limited.Header.Get("Retry-After") == "" {
		t.Errorf("3 rapid requests against -rate 1 (bucket depth 2): no 429 with Retry-After (%+v)", limited)
	}
	if resp := search("calm"); resp.StatusCode != http.StatusOK {
		t.Errorf("other client caught in the limiter: %d", resp.StatusCode)
	}

	cancel()
	if code := <-exit; code != 0 {
		t.Errorf("drain on cancel exited %d", code)
	}
}
