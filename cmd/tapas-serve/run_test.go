package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tapas/service"
	"tapas/store/replicate"
)

// These tests prove the daemon's flag wiring: each starts run() — the
// whole of main() but the signal handler — on a free loopback port, or,
// where the point is a SIGKILL, the binary TestMain built.

// binary is tapas-serve built from this directory, for the tests that
// must kill a real process; empty under -short, which skips them.
var binary string

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "tapas-serve-cli")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "tapas-serve")
	build := exec.Command("go", "build", "-o", binary, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building tapas-serve: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// lockedBuffer collects a daemon's log while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one tapas-serve, in-process (startDaemon) or a child
// process (startProcess).
type daemon struct {
	url string
	c   *service.Client
	log *lockedBuffer
	// stop ends the daemon the polite way — cancelling run's context or
	// SIGINT — waits for it and returns its exit code.
	stop func() int
	cmd  *exec.Cmd // child process only
}

// startDaemon runs the daemon in-process on a free loopback port.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{log: &lockedBuffer{}}
	addr := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), d.log, func(a string) { addr <- a })
	}()
	var once sync.Once
	var code int
	d.stop = func() int {
		once.Do(func() {
			cancel()
			code = <-exit
		})
		return code
	}
	t.Cleanup(func() { d.stop() })
	select {
	case a := <-addr:
		d.url = "http://" + a
	case c := <-exit:
		once.Do(func() { code = c })
		cancel()
		t.Fatalf("daemon exited %d before listening:\n%s", c, d.log)
	}
	d.c = service.NewClient(d.url)
	return d
}

var listeningRE = regexp.MustCompile(`tapas-serve: listening on (\S+)`)

// startProcess starts the built binary on a free loopback port and
// learns the port from its log.
func startProcess(t *testing.T, args ...string) *daemon {
	t.Helper()
	if binary == "" {
		t.Skip("real-process test: skipped under -short")
	}
	d := &daemon{log: &lockedBuffer{}}
	d.cmd = exec.Command(binary, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // the tests read ProcessState
		close(exited)
	}()
	d.stop = func() int {
		_ = d.cmd.Process.Signal(syscall.SIGINT) // already gone is fine
		select {
		case <-exited:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-exited
		}
		return d.cmd.ProcessState.ExitCode()
	}
	t.Cleanup(func() { d.stop() })
	eventually(t, "the process to listen", func() bool {
		select {
		case <-exited:
			t.Fatalf("process exited before listening:\n%s", d.log)
		default:
		}
		m := listeningRE.FindStringSubmatch(d.log.String())
		if m != nil {
			d.url = "http://" + m[1]
		}
		return m != nil
	})
	d.c = service.NewClient(d.url)
	return d
}

// kill is SIGKILL: no drain, no goodbye.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.stop() // reaps it
}

// eventually polls cond for up to 30 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (d *daemon) search(t *testing.T, model string, gpus int) *service.SearchResponse {
	t.Helper()
	resp, err := d.c.Search(context.Background(), service.SearchRequest{Model: model, GPUs: gpus})
	if err != nil {
		t.Fatalf("search %s on %s: %v\n%s", model, d.url, err, d.log)
	}
	return resp
}

func (d *daemon) health(t *testing.T) *service.Stats {
	t.Helper()
	st, err := d.c.Health(context.Background())
	if err != nil {
		t.Fatalf("healthz on %s: %v", d.url, err)
	}
	return st
}

// metric returns the value /metrics reports for an unlabelled family.
func (d *daemon) metric(t *testing.T, name string) string {
	t.Helper()
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindSubmatch(text)
	if m == nil {
		t.Fatalf("/metrics on %s has no %s", d.url, name)
	}
	return string(m[1])
}

// samePlan fails unless got is want's plan, byte for byte, with the
// same summary, cost and simulated report. timing is compared too when
// got was restored from want's own record.
func samePlan(t *testing.T, what string, want, got *service.SearchResponse, timing bool) {
	t.Helper()
	wp, _ := json.Marshal(want.Plan)
	gp, _ := json.Marshal(got.Plan)
	if !bytes.Equal(wp, gp) {
		t.Errorf("%s: plan bytes differ", what)
	}
	if got.PlanSummary != want.PlanSummary || got.CostSeconds != want.CostSeconds || got.Report != want.Report {
		t.Errorf("%s: summary diverged:\nwant %+v\n got %+v", what, want.ResultSummary, got.ResultSummary)
	}
	if timing && got.Timing != want.Timing {
		t.Errorf("%s: timing %+v, want the cold search's %+v", what, got.Timing, want.Timing)
	}
}

func records(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestRunWarmRestart: -store-dir. A plan searched by one daemon
// generation survives its drain (cancel → exit 0, write-behind queue
// flushed to disk) and the next generation over the same directory
// answers it from the store, identical down to the timing block.
func TestRunWarmRestart(t *testing.T) {
	dir := t.TempDir()
	gen1 := startDaemon(t, "-store-dir", dir)
	cold := gen1.search(t, "t5-100M", 8)
	if cold.StoreHit || cold.CacheHit {
		t.Fatalf("first-generation search must be cold: %+v", cold.ResultSummary)
	}
	if h := gen1.health(t); h.Store == nil || !h.JobsDurable || h.Replication != nil || h.Fleet != nil {
		t.Errorf("healthz of a -store-dir daemon: store %+v jobs_durable %v replication %v fleet %v",
			h.Store, h.JobsDurable, h.Replication, h.Fleet)
	}
	if code := gen1.stop(); code != 0 {
		t.Fatalf("drain on cancel exited %d:\n%s", code, gen1.log)
	}
	if !strings.HasSuffix(gen1.log.String(), "bye\n") {
		t.Errorf("drained daemon's log does not end in bye:\n%s", gen1.log)
	}
	if len(records(t, dir)) != 1 {
		t.Fatalf("the drain left %d records in %s, want the searched plan", len(records(t, dir)), dir)
	}

	gen2 := startDaemon(t, "-store-dir", dir)
	warm := gen2.search(t, "t5-100M", 8)
	if !warm.StoreHit || warm.CacheHit {
		t.Fatalf("second-generation search must be a store hit: %+v", warm.ResultSummary)
	}
	samePlan(t, "restored", cold, warm, true)
	if h := gen2.health(t); h.Store.Hits != 1 || h.Store.Entries != 1 {
		t.Errorf("healthz store stats after one hit: %+v", h.Store)
	}
}

// hop is a loopback relay to a daemon that a test connects once the
// daemon is up: until then every request gets a 503, which the
// replicating backend treats as a dead peer. It counts the DELETE
// requests sent through it.
type hop struct {
	srv     *httptest.Server
	proxy   atomic.Pointer[httputil.ReverseProxy]
	deletes atomic.Int64
}

func newHop(t *testing.T) *hop {
	h := &hop{}
	h.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			h.deletes.Add(1)
		}
		if p := h.proxy.Load(); p != nil {
			p.ServeHTTP(w, r)
			return
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(h.srv.Close)
	return h
}

func (h *hop) connect(t *testing.T, d *daemon) {
	target, err := url.Parse(d.url)
	if err != nil {
		t.Fatal(err)
	}
	h.proxy.Store(httputil.NewSingleHostReverseProxy(target))
}

// TestRunReplicatedCorpus: -store-dir plus -store-peer replicates, in
// the symmetric topology where each of two daemons lists the other. The
// daemons cannot reach each other at first, so each reports a
// replication block with its peer down, and a searched plan's fan-out
// skips the peer. Once the links answer, each probe
// (-store-probe-interval) finds its peer; nothing copies the missed plan
// ahead of time, yet the peer serves it as a store hit by read-repair;
// and the next plan reaches the peer by write-behind fan-out.
func TestRunReplicatedCorpus(t *testing.T) {
	peerDir, dir := t.TempDir(), t.TempDir()
	toPeer, toRep := newHop(t), newHop(t)
	peer := startDaemon(t, "-store-dir", peerDir, "-store-peer", toRep.srv.URL, "-store-probe-interval", "10ms")
	rep := startDaemon(t, "-store-dir", dir, "-store-peer", toPeer.srv.URL, "-store-probe-interval", "10ms")
	replication := func(d *daemon) *replicate.Stats {
		h := d.health(t)
		if h.Replication == nil || h.Replication.Peers != 1 {
			t.Fatalf("healthz of a -store-dir -store-peer daemon has replication block %+v, want one peer", h.Replication)
		}
		return h.Replication
	}

	missed := rep.search(t, "twotower-small", 4)
	eventually(t, "the fan-out to skip the dead peer", func() bool {
		r := replication(rep)
		return r.PeersHealthy == 0 && r.DeadPeerSkips >= 1 && len(records(t, dir)) == 1
	})

	toPeer.connect(t, peer)
	toRep.connect(t, rep)
	eventually(t, "both probes to find their peer", func() bool {
		return replication(rep).PeersHealthy == 1 && replication(peer).PeersHealthy == 1
	})
	if n := len(records(t, peerDir)); n != 0 {
		t.Fatalf("%d records reached the peer before it read any", n)
	}
	repaired := peer.search(t, "twotower-small", 4)
	if !repaired.StoreHit || repaired.CacheHit {
		t.Fatalf("the peer re-searched a plan written while it was down: %+v", repaired.ResultSummary)
	}
	samePlan(t, "read-repaired", missed, repaired, true)
	if r := replication(peer); r.RepairHits < 1 || len(records(t, peerDir)) != 1 {
		t.Fatalf("peer after the read: repair_hits %d, %d records on disk, want ≥ 1 and 1", r.RepairHits, len(records(t, peerDir)))
	}

	fanned := rep.search(t, "t5-100M", 8)
	eventually(t, "the fan-out to land on the peer's disk", func() bool {
		return replication(rep).FanoutWrites >= 1 && len(records(t, peerDir)) == 2
	})
	warm := peer.search(t, "t5-100M", 8)
	if !warm.StoreHit {
		t.Fatalf("the peer re-searched a plan fanned out to it: %+v", warm.ResultSummary)
	}
	samePlan(t, "fanned out", fanned, warm, true)
}

// TestRunReplicaBoundsItsDisk: -store-max bounds each replica's files,
// not only its index, and no delete crosses the wire. Two replicas list
// each other; 50 plans searched on A fan out to B, and each replica
// keeps the 4 it used last. A plan A evicted while B still holds it is
// served store_hit again, read-repaired from B with one repair hit.
func TestRunReplicaBoundsItsDisk(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	toA, toB := newHop(t), newHop(t)
	flags := []string{"-cache", "0", "-store-max", "4", "-store-probe-interval", "10ms"}
	a := startDaemon(t, append([]string{"-store-dir", dirA, "-store-peer", toB.srv.URL}, flags...)...)
	b := startDaemon(t, append([]string{"-store-dir", dirB, "-store-peer", toA.srv.URL}, flags...)...)
	toA.connect(t, a)
	toB.connect(t, b)
	eventually(t, "both replicas to see their peer", func() bool {
		return a.health(t).Replication.PeersHealthy == 1 && b.health(t).Replication.PeersHealthy == 1
	})

	// Each spec is a distinct graph, so each search is one cold Put.
	search := func(d *daemon, i int) *service.SearchResponse {
		t.Helper()
		spec := fmt.Sprintf("model evict-%d\ninput x f32 16 128\ndense fc x %d relu\ndense out fc 128 none\nloss l out\n", i, 128+8*i)
		resp, err := d.c.Search(context.Background(), service.SearchRequest{Spec: spec, GPUs: 4})
		if err != nil {
			t.Fatalf("search spec %d on %s: %v\n%s", i, d.url, err, d.log)
		}
		return resp
	}
	settled := func(fanned uint64) {
		t.Helper()
		eventually(t, "the fan-out to land and both replicas to evict", func() bool {
			return a.health(t).Replication.FanoutWrites == fanned && len(records(t, dirA)) <= 4 && len(records(t, dirB)) <= 4
		})
	}
	cold := make(map[int]*service.SearchResponse)
	for i := 0; i < 50; i++ {
		if cold[i] = search(a, i); cold[i].StoreHit || cold[i].CacheHit {
			t.Fatalf("spec %d was not searched cold", i)
		}
	}
	settled(50)
	if na, nb := len(records(t, dirA)), len(records(t, dirB)); na != 4 || nb != 4 {
		t.Fatalf("after 50 puts with -store-max 4: %d files on A, %d on B, want 4 each", na, nb)
	}

	// B uses plan 46 again, so B keeps it while A's next two plans
	// evict it from A (and 47, 48 from B).
	if hit := search(b, 46); !hit.StoreHit {
		t.Fatalf("B re-searched plan 46 instead of serving it from its store")
	}
	search(a, 50)
	search(a, 51)
	settled(52)

	repaired := search(a, 46)
	if !repaired.StoreHit {
		t.Fatalf("A re-searched evicted plan 46 that B still holds: %+v", repaired.ResultSummary)
	}
	samePlan(t, "read-repaired after eviction", cold[46], repaired, true)
	if r := a.health(t).Replication; r.RepairHits != 1 {
		t.Errorf("A's repair_hits = %d, want 1", r.RepairHits)
	}
	eventually(t, "A to evict past its bound after the repair", func() bool { return len(records(t, dirA)) == 4 })
	if nb := len(records(t, dirB)); nb != 4 {
		t.Errorf("%d files on B, want 4", nb)
	}
	if n := toA.deletes.Load() + toB.deletes.Load(); n != 0 {
		t.Errorf("%d DELETE requests crossed the wire, want 0", n)
	}
}

// TestRunRefusesBadStoreFlags: -store-peer replicates a -store-dir
// corpus, so peers without one are a usage error, and the retired
// -store-gc-age and -jobs-dir flags are unknown — exit 2 before anything
// is opened, with a message naming the flag at fault.
func TestRunRefusesBadStoreFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-store-peer", "http://127.0.0.1:1"}, "-store-dir"},
		{[]string{"-store-peer", "http://127.0.0.1:1", "-store-peer", "http://127.0.0.1:2"}, "-store-dir"},
		{[]string{"-store-dir", t.TempDir(), "-store-gc-age", "1h"}, "-store-gc-age"},
		{[]string{"-store-dir", t.TempDir(), "-jobs-dir", t.TempDir()}, "-jobs-dir"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	} {
		var log bytes.Buffer
		ctx, cancel := context.WithCancel(context.Background())
		ready := func(addr string) {
			t.Errorf("%v: daemon listened on %s", tc.args, addr)
			cancel()
		}
		code := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &log, ready)
		cancel()
		if code != 2 || !strings.Contains(log.String(), tc.want) {
			t.Errorf("%v: exit %d, want 2 and a message naming %s\n%s", tc.args, code, tc.want, &log)
		}
	}
}

// TestRunFleet: -fleet. The coordinator reports a fleet block, scatters
// a cold search's prefix tasks to the executor, and answers with the
// plan the executor finds searching alone, byte for byte.
func TestRunFleet(t *testing.T) {
	exec := startDaemon(t)
	coord := startDaemon(t, "-fleet", exec.url)
	scattered := coord.search(t, "t5-100M", 8)
	if scattered.CacheHit {
		t.Fatal("the scattered search was not cold")
	}
	samePlan(t, "scattered", exec.search(t, "t5-100M", 8), scattered, false)
	if h := coord.health(t); h.Fleet == nil || h.Fleet.Peers != 1 || h.Fleet.PeersHealthy != 1 || h.Fleet.TasksScattered == 0 {
		t.Errorf("coordinator's fleet block: %+v", h.Fleet)
	}
	h := exec.health(t)
	if h.TasksExecuted == 0 || h.TasksFailed != 0 || h.Fleet != nil {
		t.Errorf("executor: tasks_executed %d tasks_failed %d fleet %+v", h.TasksExecuted, h.TasksFailed, h.Fleet)
	}
	// Every scattered task was executed over there, and /metrics agrees.
	want := strconv.FormatUint(h.TasksExecuted, 10)
	if got := coord.metric(t, "tapas_tasks_scattered_total"); got != want {
		t.Errorf("coordinator scattered %s tasks, the executor ran %s", got, want)
	}
	if got := exec.metric(t, "tapas_tasks_executed_total"); got != want {
		t.Errorf("executor's tapas_tasks_executed_total %s, healthz %s", got, want)
	}
}

// TestRunPprof: -pprof-addr serves the profiler on its own port, never
// on the API port, and only while the daemon runs.
func TestRunPprof(t *testing.T) {
	d := startDaemon(t, "-pprof-addr", "127.0.0.1:0")
	m := regexp.MustCompile(`pprof listening on (\S+)`).FindStringSubmatch(d.log.String())
	if m == nil {
		t.Fatalf("no pprof listener in the log:\n%s", d.log)
	}
	get := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			return 0
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get("http://" + m[1] + "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof port answered %d", code)
	}
	if code := get(d.url + "/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Errorf("API port answered /debug/pprof with %d, want 404", code)
	}
	d.stop()
	if code := get("http://" + m[1] + "/debug/pprof/cmdline"); code != 0 {
		t.Errorf("pprof port still answers (%d) after the daemon stopped", code)
	}
}

// TestKill9AdoptsJobs: durable jobs on a real process. Four jobs onto
// one worker, the first a slow exhaustive search pinning it, SIGKILL
// mid-job; the next process over the same store adopts all four under
// their ids, runs each to done exactly once, and drains cleanly on a
// real SIGINT.
func TestKill9AdoptsJobs(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	first := startProcess(t, "-store-dir", dir, "-job-workers", "1")
	var ids []string
	for _, req := range []service.SearchRequest{
		{Model: "t5-770M", GPUs: 8, Exhaustive: true, TimeBudgetMS: 1500},
		{Model: "t5-100M", GPUs: 8},
		{Model: "t5-200M", GPUs: 8},
		{Model: "twotower-small", GPUs: 4},
	} {
		st, err := first.c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	eventually(t, "the first job to start", func() bool {
		st, err := first.c.Job(ctx, ids[0])
		return err == nil && st.State == service.JobRunning
	})
	// Records are written behind: on a loaded machine a kill right after
	// the start can beat the later submissions to disk. Wait for all four
	// submissions and the first job's start to land.
	eventually(t, "the job records to reach disk", func() bool {
		h := first.health(t)
		return h.JobStore != nil && h.JobStore.Persists >= int64(len(ids))+1
	})
	first.kill(t)

	second := startProcess(t, "-store-dir", dir, "-job-workers", "1")
	if h := second.health(t); !h.JobsDurable || h.JobsAdopted != len(ids) {
		t.Fatalf("restarted daemon: jobs_durable %v, jobs_adopted %d, want %d\n%s", h.JobsDurable, h.JobsAdopted, len(ids), second.log)
	}
	for _, id := range ids {
		st, err := second.c.WaitDone(ctx, id, 20*time.Millisecond)
		if err != nil || st.State != service.JobDone || !st.Adopted || st.Result == nil {
			t.Fatalf("adopted job %s: %+v, %v", id, st, err)
		}
	}
	var list struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	resp, err := http.Get(second.url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, j := range list.Jobs {
		got[j.ID] = true
	}
	want := make(map[string]bool)
	for _, id := range ids {
		want[id] = true
	}
	if len(list.Jobs) != len(ids) || !reflect.DeepEqual(got, want) {
		t.Errorf("job listing after adoption has %d rows %v, want exactly %v", len(list.Jobs), got, want)
	}
	if got := second.metric(t, "tapas_jobs_adopted_total"); got != strconv.Itoa(len(ids)) {
		t.Errorf("tapas_jobs_adopted_total %s, want %d", got, len(ids))
	}
	if code := second.stop(); code != 0 {
		t.Errorf("SIGINT drain exited %d:\n%s", code, second.log)
	}
}

// TestKill9TheCorpusWriter: the replicated corpus on a real process.
// The daemon that searched a plan fans it out to two survivors and is
// SIGKILLed; one survivor serves the plan store-warm from its own
// directory, the other loses its disk on top and repairs itself from
// the first on the next read.
func TestKill9TheCorpusWriter(t *testing.T) {
	dirC, dirB := t.TempDir(), t.TempDir()
	c := startDaemon(t, "-store-dir", dirC)
	b := startDaemon(t, "-store-dir", dirB, "-store-peer", c.url)
	writer := startProcess(t, "-store-dir", t.TempDir(), "-store-peer", b.url, "-store-peer", c.url)
	cold := writer.search(t, "t5-100M", 8)
	eventually(t, "the fan-out to reach both survivors", func() bool {
		return len(records(t, dirB)) == 1 && len(records(t, dirC)) == 1
	})
	writer.kill(t)

	fromC := c.search(t, "t5-100M", 8)
	if !fromC.StoreHit || fromC.CacheHit {
		t.Fatalf("survivor did not serve the dead writer's plan from its store: %+v", fromC.ResultSummary)
	}
	samePlan(t, "survivor", cold, fromC, true)

	for _, name := range records(t, dirB) {
		if err := os.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	fromB := b.search(t, "t5-100M", 8)
	if !fromB.StoreHit || fromB.CacheHit {
		t.Fatalf("wiped survivor re-searched instead of reading through to its peer: %+v", fromB.ResultSummary)
	}
	samePlan(t, "read-repaired", cold, fromB, true)
	if h := b.health(t); h.Replication.RepairHits != 1 {
		t.Errorf("replication counters after a read-repair: %+v", h.Replication)
	}
	if len(records(t, dirB)) != 1 {
		t.Error("the repaired record did not land back on disk")
	}
}
