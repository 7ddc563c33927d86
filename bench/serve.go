package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tapas/service"
)

// daemon is one child process of the benchmark.
type daemon struct {
	name    string
	url     string
	cmd     *exec.Cmd
	log     string        // file its output goes to
	done    chan struct{} // closed once the process has been waited for
	startMS float64       // exec to first healthy answer
}

// fleet is the set of children of one set-up; stop ends them all.
type fleet struct {
	mu      sync.Mutex
	daemons []*daemon
}

// basePort is where the search for free loopback ports starts. The same
// ports every run keep the gateway's hash ring, and so the split of the
// keys over the replicas, the same from run to run.
const basePort = 18931

func freePort(from int) (int, error) {
	for p := from; p < from+500; p++ {
		l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p))
		if err == nil {
			l.Close()
			return p, nil
		}
	}
	return 0, fmt.Errorf("no free loopback port in %d..%d", from, from+500)
}

// buildDaemons compiles tapas-serve and tapas-gateway from the checkout.
func (b *bench) buildDaemons() (string, error) {
	dir, err := b.tempDir("bin-")
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/tapas-serve", "./cmd/tapas-gateway")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building the daemons: %v\n%s", err, out)
	}
	return dir, nil
}

// start launches one daemon on a free port at or after *port, waits
// until its /v1/healthz answers wantStatus, and advances *port.
func (f *fleet) start(b *bench, bin, name string, port *int, wantStatus string, args ...string) (*daemon, error) {
	p, err := freePort(*port)
	if err != nil {
		return nil, err
	}
	*port = p + 1
	addr := "127.0.0.1:" + strconv.Itoa(p)
	d := &daemon{name: name, url: "http://" + addr, log: filepath.Join(b.tmp, name+".log"), done: make(chan struct{})}
	logf, err := os.Create(d.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.daemons = append(f.daemons, d)
	f.mu.Unlock()
	go func() {
		_ = d.cmd.Wait() // the exit status of a stopped daemon says nothing
		close(d.done)
	}()

	hc := &http.Client{Timeout: time.Second}
	for deadline := t0.Add(30 * time.Second); ; {
		if resp, err := hc.Get(d.url + "/v1/healthz"); err == nil {
			var body struct {
				Status string `json:"status"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err == nil && body.Status == wantStatus {
				d.startMS = ms(time.Since(t0))
				return d, nil
			}
		}
		select {
		case <-d.done:
			out, _ := os.ReadFile(d.log)
			return nil, fmt.Errorf("%s exited during start-up:\n%s", name, out)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s did not become healthy in 30 s (log: %s)", name, d.log)
		}
	}
}

// stop sends every child SIGTERM, waits for it to end, and kills the
// ones that do not. It may be called more than once.
func (f *fleet) stop() {
	f.mu.Lock()
	ds := f.daemons
	f.daemons = nil
	f.mu.Unlock()
	for _, d := range ds {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	}
	for _, d := range ds {
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
}

// rssMB reads a child's resident set size; 0 where /proc has none.
func (d *daemon) rssMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// serving is a running gateway with its two replicas, populated.
type serving struct {
	fleet    *fleet
	bin      string
	gateway  *daemon
	replicas []*daemon
	hc       *http.Client
	owner    map[key]string // replica URL the gateway routes each key to
	nextPort int
}

// wireResponse is the part of a v1 SearchResponse the benchmark reads.
type wireResponse struct {
	Plan     json.RawMessage `json:"plan"`
	CacheHit bool            `json:"cache_hit"`
	StoreHit bool            `json:"store_hit"`
}

// source names where the replica took the answer from. An entry the
// memory cache took over from the store keeps both flags.
func (wr *wireResponse) source() string {
	switch {
	case wr.CacheHit:
		return "cache"
	case wr.StoreHit:
		return "store"
	}
	return "search"
}

func searchBody(k key) []byte {
	body, _ := json.Marshal(service.SearchRequest{Model: k.Model, GPUs: k.GPUs}) // cannot fail: plain fields
	return body
}

// post sends one synchronous search and returns the response body, the
// replica that answered (set by the gateway), and the time to the last
// byte in milliseconds.
func (s *serving) post(base string, body []byte) ([]byte, string, float64, error) {
	t0 := time.Now()
	resp, err := s.hc.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := ms(time.Since(t0))
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	return data, resp.Header.Get("X-Tapas-Replica"), d, err
}

// checkResponse verifies the plan inside a response body and returns
// where the answer came from.
func checkResponse(v *verifier, k key, data []byte) (string, error) {
	var wr wireResponse
	if err := json.Unmarshal(data, &wr); err != nil {
		return "", fmt.Errorf("%v: response does not parse: %w", k, err)
	}
	return wr.source(), v.checkRaw(k, wr.Plan)
}

// startServing builds the daemons, starts two replicas (result cache of
// 32 entries over a fresh store directory each) behind a gateway, and
// searches every key once through the gateway. Each replica then owns
// about 44 keys, more than its cache holds, so the measured phase mixes
// memory-cache hits with store hits and runs no search.
func startServing(b *bench, v *verifier, t *tally) (*serving, error) {
	s := &serving{fleet: &fleet{}, owner: map[key]string{}, nextPort: basePort}
	b.onExit(s.fleet.stop)
	var err error
	if s.bin, err = b.buildDaemons(); err != nil {
		return nil, err
	}
	var urls []string
	for _, name := range []string{"replica-a", "replica-b"} {
		dir, err := b.tempDir(name + "-store-")
		if err != nil {
			return nil, err
		}
		d, err := s.fleet.start(b, filepath.Join(s.bin, "tapas-serve"), name, &s.nextPort, "ok", "-cache", "32", "-store-dir", dir)
		if err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, d)
		urls = append(urls, d.url)
	}
	if s.gateway, err = s.fleet.start(b, filepath.Join(s.bin, "tapas-gateway"), "gateway", &s.nextPort, "ok", "-replicas", strings.Join(urls, ",")); err != nil {
		return nil, err
	}
	s.hc = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * b.nproc}}

	var mu sync.Mutex
	forEachKey(v.keys, b.nproc, func(k key) {
		data, replica, _, err := s.post(s.gateway.url, searchBody(k))
		if err == nil {
			_, err = checkResponse(v, k, data)
		}
		t.note(err)
		mu.Lock()
		s.owner[k] = replica
		mu.Unlock()
	})
	for k, u := range s.owner {
		if u == "" {
			return nil, fmt.Errorf("%v: gateway did not name the replica that answered", k)
		}
	}
	return s, nil
}

// popularitySeed fixes which key is how popular. The run's seed draws
// the request schedule, not the ranking: were the hottest key a 5 KB
// plan under one seed and a 330 KB plan under the next, runs would not
// be comparable.
const popularitySeed = 20260928

func byPopularity(keys []key) []key {
	return shuffled(rand.New(rand.NewSource(popularitySeed)), keys)
}

// scheduleLen is how many requests one round of serve-mix sends: every
// key at least once, 30 requests beyond the 95th percentile, and a round
// short enough that a run of 20 s replays it more than ten times.
const scheduleLen = 600

// drawSchedule makes the run's round of requests. Which key is asked for
// how often is fixed: Zipf(s = 1.1, v = 1) over the popularity ranking,
// apportioned to scheduleLen requests by largest remainder, so every
// seed sends the same mix. The seed draws the order, and with it which
// repeats of a key find it evicted.
func drawSchedule(seed int64, keys []key) []key {
	hot := byPopularity(keys)
	share := make([]float64, len(hot))
	total := 0.0
	for i := range hot {
		share[i] = math.Pow(float64(1+i), -1.1)
		total += share[i]
	}
	count := make([]int, len(hot))
	order := make([]int, len(hot))
	left := scheduleLen
	for i := range hot {
		share[i] *= scheduleLen / total
		count[i] = int(share[i])
		share[i] -= float64(count[i])
		order[i] = i
		left -= count[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return share[order[a]] > share[order[b]] })
	for _, i := range order[:left] {
		count[i]++
	}
	var out []key
	for i, k := range hot {
		for ; count[i] > 0; count[i]-- {
			out = append(out, k)
		}
	}
	return shuffled(rand.New(rand.NewSource(seed)), out)
}

// The two routes a request can take: through the gateway, or straight to
// the replica the gateway would pick.
func (s *serving) viaGateway(key) string { return s.gateway.url }
func (s *serving) direct(k key) string   { return s.owner[k] }

// load is what one closed-loop phase measured.
type load struct {
	ops      []float64 // quiet time of every request of the schedule
	rounds   int
	requests int
	bytes    int64
	perOwner map[string]int
}

// replay is the closed loop: one client sends the schedule over and over
// for d, each request when the previous answer has arrived, and at least
// once. route picks the base URL a key is sent to. One client, because
// more requests in flight than the host has idle cores measure its
// scheduler. Two requests do the same work when they ask for the same
// key and the replica takes the answer from the same place, so a
// request's quiet time is the fastest of all such requests of the phase,
// with the place its last round took it from.
func (s *serving) replay(rec *recorder, label string, d time.Duration, sched []key, v *verifier, t *tally, route func(key) string) load {
	l := load{perOwner: map[string]int{}}
	times := steps{}
	last := make([]string, len(sched))
	for start := time.Now(); l.rounds == 0 || time.Since(start) < d; l.rounds++ {
		for i, k := range sched {
			sp := rec.begin(fmt.Sprintf("%s/round%d/r%d", label, l.rounds, i), 0, label)
			data, replica, lat, err := s.post(route(k), searchBody(k))
			sp.end()
			src := ""
			if err == nil {
				src, err = checkResponse(v, k, data)
			}
			t.note(err)
			last[i] = k.String() + "/" + src
			times.add(last[i], lat)
			l.requests++
			l.bytes += int64(len(data))
			l.perOwner[replica]++
		}
	}
	l.ops = times.quiet(last...)
	return l
}

// counters is the sum of the replicas' healthz counters the benchmark
// reads before and after a phase.
type counters struct {
	cacheHits, cacheMisses, cacheJoined, storeHits, storeMisses, tasks float64
}

func (s *serving) counters(ctx context.Context) (counters, error) {
	var c counters
	for _, d := range s.replicas {
		st, err := service.NewClient(d.url).Health(ctx)
		if err != nil {
			return c, fmt.Errorf("healthz of %s: %w", d.name, err)
		}
		c.cacheHits += float64(st.Cache.Hits)
		c.cacheMisses += float64(st.Cache.Misses)
		c.cacheJoined += float64(st.Cache.Joined)
		c.tasks += float64(st.TasksExecuted)
		if st.Store != nil {
			c.storeHits += float64(st.Store.Hits)
			c.storeMisses += float64(st.Store.Misses)
		}
	}
	return c, nil
}

func runServeMix(b *bench) (*report, error) {
	var (
		t      tally
		v      *verifier
		s      *serving
		setups []float64
	)
	for i := 0; i < b.setupRepeats(); i++ {
		if s != nil {
			s.fleet.stop() // every set-up starts fresh processes over fresh directories
		}
		t0 := time.Now()
		var err error
		if v, err = newVerifier(b.root); err != nil {
			return nil, err
		}
		if s, err = startServing(b, v, &t); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ctx := context.Background()
	if b.rec != nil {
		return serveTraced(ctx, b, s, v, &t)
	}

	sched := drawSchedule(b.seed, v.keys)
	before, err := s.counters(ctx)
	if err != nil {
		return nil, err
	}
	s.replay(nil, "gateway", 0, sched, v, &t, s.viaGateway) // warm round: connections, and the caches' steady state
	l := s.replay(nil, "gateway", b.seconds, sched, v, &t, s.viaGateway)
	after, err := s.counters(ctx)
	if err != nil {
		return nil, err
	}
	if cold := after.storeMisses - before.storeMisses; cold != 0 {
		return nil, fmt.Errorf("%v cold searches ran in the measured phase; the workload is meant to run none", cold)
	}
	return roundOfOps(&t, setups, l.ops, l.rounds), nil
}

// serveTraced is the traced run of serve-mix: the same request streams
// sent through the gateway untraced, then under a span per request,
// then straight to the replica that owns each key; the job and fleet
// probes; a service hit in-process; and the key space's cold search
// staged by hand (what set-up spends its time on).
func serveTraced(ctx context.Context, b *bench, s *serving, v *verifier, t *tally) (*report, error) {
	out := map[string]sample{}
	quarter := b.seconds / 4

	sched := drawSchedule(b.seed, v.keys)
	plain := s.replay(nil, "gateway", quarter, sched, v, t, s.viaGateway)
	before, err := s.counters(ctx)
	if err != nil {
		return nil, err
	}
	via := s.replay(b.rec, "gateway", quarter, sched, v, t, s.viaGateway)
	after, err := s.counters(ctx)
	if err != nil {
		return nil, err
	}
	straight := s.replay(b.rec, "direct", quarter, sched, v, t, s.direct)

	lookups := (after.cacheHits - before.cacheHits) + (after.cacheMisses - before.cacheMisses) + (after.cacheJoined - before.cacheJoined)
	out["service.cache_hit_share"] = sample{((after.cacheHits - before.cacheHits) + (after.cacheJoined - before.cacheJoined)) / lookups, int(lookups)}
	out["service.store_hit_share"] = sample{(after.storeHits - before.storeHits) / lookups, int(lookups)}
	out["store.hits"] = sample{after.storeHits - before.storeHits, 0}
	out["store.misses"] = sample{after.storeMisses - before.storeMisses, 0}
	out["service.response_bytes"] = sample{float64(via.bytes) / float64(via.requests), via.requests}
	out["serve.direct_ms_p50"] = sample{median(straight.ops), straight.rounds}
	out["serve.direct_ms_p99"] = sample{percentile(straight.ops, 99), straight.rounds}
	out["gateway.hop_ms_p50"] = sample{median(via.ops) - median(straight.ops), via.rounds}
	busiest := 0
	for _, n := range via.perOwner {
		busiest = max(busiest, n)
	}
	out["gateway.replica_balance"] = sample{float64(busiest) / float64(via.requests), via.requests}
	out["trace.overhead_share"] = sample{median(via.ops)/median(plain.ops) - 1, plain.rounds}
	out["serve.start_ms"] = sample{median([]float64{s.replicas[0].startMS, s.replicas[1].startMS}), 2}

	if err := jobsProbe(ctx, b, s, v, t, out); err != nil {
		return nil, err
	}
	out["serve.rss_mb"] = sample{max(s.replicas[0].rssMB(), s.replicas[1].rssMB()), 0}
	out["gateway.rss_mb"] = sample{s.gateway.rssMB(), 0}
	if err := fleetProbe(ctx, b, s, out); err != nil {
		return nil, err
	}
	s.fleet.stop()

	if err := serviceHit(ctx, b, v, t, out); err != nil {
		return nil, err
	}
	st, err := stagedPass(b.rec, 0, v, t, v.keys, 1)
	if err != nil {
		return nil, err
	}
	stageMetrics([]stageSums{st}, out)
	return &report{attempted: t.attempted, failed: t.failed, metrics: out}, nil
}

// jobsProbe runs 1,000 sequential job round trips through the gateway:
// submit, follow the event stream to the terminal state, fetch the
// result. It reports the median and how the last 200 compare with the
// first 200, because a fleet was seen to slow as finished jobs pile up.
func jobsProbe(ctx context.Context, b *bench, s *serving, v *verifier, t *tally, out map[string]sample) error {
	const trips, edge = 1000, 200
	c := service.NewClient(s.gateway.url)
	hot := byPopularity(v.keys)
	r := rand.New(rand.NewSource(b.seed))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(hot)-1))
	times := make([]float64, 0, trips)
	for i := 0; i < trips; i++ {
		k := hot[zipf.Uint64()]
		sp := b.rec.begin(fmt.Sprintf("job%d", i), 0, "job round trip")
		st, err := c.Submit(ctx, service.SearchRequest{Model: k.Model, GPUs: k.GPUs})
		if err == nil {
			err = c.StreamEvents(ctx, st.ID, func(service.JobEvent) error { return nil })
		}
		if err == nil {
			st, err = c.Job(ctx, st.ID)
		}
		times = append(times, sp.end())
		switch {
		case err != nil:
		case st.State != service.JobDone || st.Result == nil || st.Result.Plan == nil:
			err = fmt.Errorf("%v: job %s ended %s without a plan", k, st.ID, st.State)
		default:
			err = v.checkPlan(k, st.Result.Plan)
		}
		t.note(err)
	}
	first, last := append([]float64(nil), times[:edge]...), append([]float64(nil), times[trips-edge:]...)
	out["service.job_drift"] = sample{median(last) / median(first), edge}
	out["service.job_ms_p50"] = sample{median(times), trips}
	return nil
}

// fleetProbe starts a third daemon that scatters cold searches over the
// two replicas, and cold-searches one key outside the key space on it
// and on a plain replica. The two plans must be byte-identical.
func fleetProbe(ctx context.Context, b *bench, s *serving, out map[string]sample) error {
	k := key{"t5-1.4B", 2}
	urls := s.replicas[0].url + "," + s.replicas[1].url
	coord, err := s.fleet.start(b, filepath.Join(s.bin, "tapas-serve"), "coordinator", &s.nextPort, "ok", "-fleet", urls)
	if err != nil {
		return err
	}
	before, err := s.counters(ctx)
	if err != nil {
		return err
	}
	sp := b.rec.begin("fleet/scatter", 0, "cold search, scattered")
	scattered, _, _, err := s.post(coord.url, searchBody(k))
	out["dispatch.scatter_cold_ms"] = sample{sp.end(), 1}
	if err != nil {
		return fmt.Errorf("scattered search: %w", err)
	}
	after, err := s.counters(ctx)
	if err != nil {
		return err
	}
	out["dispatch.tasks_scattered"] = sample{after.tasks - before.tasks, 1}
	sp = b.rec.begin("fleet/local", 0, "cold search, local pool")
	local, _, _, err := s.post(s.replicas[0].url, searchBody(k))
	out["dispatch.local_cold_ms"] = sample{sp.end(), 1}
	if err != nil {
		return fmt.Errorf("local search: %w", err)
	}
	var a, c wireResponse
	if err := json.Unmarshal(scattered, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(local, &c); err != nil {
		return err
	}
	if len(a.Plan) == 0 || !bytes.Equal(a.Plan, c.Plan) {
		return fmt.Errorf("%v: the scattered plan differs from the local one", k)
	}
	return nil
}

// serviceHit times Service.Search on a cache hit in-process: a serving
// hit without HTTP, the process boundary or the gateway.
func serviceHit(ctx context.Context, b *bench, v *verifier, t *tally, out map[string]sample) error {
	svc, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	defer svc.Shutdown(ctx)
	keys := append(append([]key{}, coldDeepKeys...), coldWideKeys...)
	const rounds = 2000
	times := make([]float64, 0, rounds)
	for i := 0; i < len(keys)+rounds; i++ {
		k := keys[i%len(keys)]
		t0 := time.Now()
		resp, err := svc.Search(ctx, service.SearchRequest{Model: k.Model, GPUs: k.GPUs})
		d := ms(time.Since(t0))
		if i >= len(keys) { // the first round fills the cache
			times = append(times, d)
			if err == nil && !resp.CacheHit {
				err = fmt.Errorf("%v: repeat search was not a cache hit", k)
			}
		}
		if err == nil {
			err = v.checkPlan(k, resp.Plan)
		}
		t.note(err)
	}
	out["service.search_hit_ms"] = sample{median(times), rounds}
	return nil
}
