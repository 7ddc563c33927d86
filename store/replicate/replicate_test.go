package replicate_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tapas/internal/export"
	"tapas/store"
	"tapas/store/backendtest"
	"tapas/store/remotebackend"
	"tapas/store/replicate"
)

// testRecord builds one valid record payload whose key hashes to its
// id — the shape PutRaw's validation demands, so the same payloads work
// against filesystem peers and the HTTP peer protocol alike.
func testRecord(i int, variant string) (store.Key, string, []byte) {
	k := store.Key{Kind: "search", Graph: fmt.Sprintf("replicate-%d", i), GPUs: 8, Cluster: "test", Options: "o"}
	data, err := store.Encode(k, &store.Record{
		Model:         "model-" + variant,
		GPUs:          8,
		Plan:          &export.StrategyJSON{SchemaVersion: export.SchemaVersion, Model: "model-" + variant, Workers: 8},
		CreatedUnixMS: 1,
	})
	if err != nil {
		panic(err)
	}
	return k, k.ID(), data
}

func newFS(t *testing.T) *store.FS {
	t.Helper()
	b, err := store.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newReplicated(t *testing.T, opts replicate.Options) *replicate.Backend {
	t.Helper()
	b, err := replicate.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// syncBackend adapts the replicating backend to the conformance
// battery: the battery's contract is synchronous, so every write waits
// for the write-behind fanout to land. The full fanout path still runs —
// only the timing is pinned. Deletes do not replicate, so the battery's
// "Get after Delete misses" holds once every replica has dropped its own
// copy: Delete removes the composite's local copy, then each peer's
// directly, as each replica's own store would (TestFanoutWriteBehind
// pins that the composite's Delete alone touches no peer).
type syncBackend struct {
	*replicate.Backend
	peers []store.Backend
}

func (s syncBackend) Put(id string, data []byte) error {
	err := s.Backend.Put(id, data)
	s.Flush()
	return err
}

func (s syncBackend) Delete(id string) error {
	err := s.Backend.Delete(id)
	for _, p := range s.peers {
		_ = p.Delete(id) // a dead peer holds nothing to drop
	}
	return err
}

// errDown is the transport-level failure of a dead peer.
var errDown = errors.New("dial tcp: connection refused")

// downBackend is a peer that died before the test started: every call
// fails at the transport.
type downBackend struct{}

func (downBackend) Get(string) ([]byte, error)           { return nil, errDown }
func (downBackend) Put(string, []byte) error             { return errDown }
func (downBackend) Delete(string) error                  { return errDown }
func (downBackend) List() ([]store.EntryInfo, error)     { return nil, errDown }
func (downBackend) Stat(string) (store.EntryInfo, error) { return store.EntryInfo{}, errDown }

// flakyBackend delegates to an inner backend while up and fails at the
// transport while down — a peer that can die and come back.
type flakyBackend struct {
	inner store.Backend
	up    atomic.Bool
}

func (f *flakyBackend) Get(id string) ([]byte, error) {
	if !f.up.Load() {
		return nil, errDown
	}
	return f.inner.Get(id)
}

func (f *flakyBackend) Put(id string, data []byte) error {
	if !f.up.Load() {
		return errDown
	}
	return f.inner.Put(id, data)
}

func (f *flakyBackend) Delete(id string) error {
	if !f.up.Load() {
		return errDown
	}
	return f.inner.Delete(id)
}

func (f *flakyBackend) List() ([]store.EntryInfo, error) {
	if !f.up.Load() {
		return nil, errDown
	}
	return f.inner.List()
}

func (f *flakyBackend) Stat(id string) (store.EntryInfo, error) {
	if !f.up.Load() {
		return store.EntryInfo{}, errDown
	}
	return f.inner.Stat(id)
}

// TestReplicateConformanceHealthy runs the shared backend battery
// against the full composite: a filesystem local plus two filesystem
// peers, all reachable. The replicating backend must be
// indistinguishable from a plain one.
func TestReplicateConformanceHealthy(t *testing.T) {
	locals := map[store.Backend]*store.FS{}
	backendtest.Run(t, backendtest.Harness{
		Open: func(t *testing.T) store.Backend {
			local, p1, p2 := newFS(t), newFS(t), newFS(t)
			b := newReplicated(t, replicate.Options{
				Local: local,
				Peers: []replicate.Peer{
					{Name: "p1", Backend: p1},
					{Name: "p2", Backend: p2},
				},
				ProbeInterval: -1,
			})
			sb := &syncBackend{b, []store.Backend{p1, p2}}
			locals[sb] = local
			return sb
		},
		Corrupt: func(t *testing.T, b store.Backend, id string, data []byte) {
			if err := os.WriteFile(locals[b].Path(id), data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	})
}

// TestReplicateConformanceOneDeadPeer runs the same battery with one
// peer dead from the start: the first call marks it down and every
// operation must still satisfy the contract against the survivors.
func TestReplicateConformanceOneDeadPeer(t *testing.T) {
	locals := map[store.Backend]*store.FS{}
	backendtest.Run(t, backendtest.Harness{
		Open: func(t *testing.T) store.Backend {
			local, alive := newFS(t), newFS(t)
			b := newReplicated(t, replicate.Options{
				Local: local,
				Peers: []replicate.Peer{
					{Name: "alive", Backend: alive},
					{Name: "dead", Backend: downBackend{}},
				},
				ProbeInterval: -1,
			})
			sb := &syncBackend{b, []store.Backend{alive, downBackend{}}}
			locals[sb] = local
			return sb
		},
		Corrupt: func(t *testing.T, b store.Backend, id string, data []byte) {
			if err := os.WriteFile(locals[b].Path(id), data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	})
}

// TestFanoutWriteBehind pins the write path: a Put lands on every peer
// once the queues drain, and the counters see it; a Delete removes the
// local copy only — deletes do not replicate — so the record is still
// served through the composite, by read-repair from a peer.
func TestFanoutWriteBehind(t *testing.T) {
	local, p1, p2 := newFS(t), newFS(t), newFS(t)
	b := newReplicated(t, replicate.Options{
		Local:         local,
		Peers:         []replicate.Peer{{Name: "p1", Backend: p1}, {Name: "p2", Backend: p2}},
		ProbeInterval: -1,
	})

	_, id, data := testRecord(1, "a")
	if err := b.Put(id, data); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	for name, fs := range map[string]*store.FS{"local": local, "p1": p1, "p2": p2} {
		got, err := fs.Get(id)
		if err != nil {
			t.Fatalf("%s missing the fanned-out record: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s holds different bytes", name)
		}
	}
	if st := b.Stats(); st.FanoutWrites != 2 || st.FanoutErrors != 0 {
		t.Fatalf("stats after put: %+v, want 2 fanout writes", st)
	}

	if err := b.Delete(id); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	if _, err := local.Get(id); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("local still serves the deleted record: %v", err)
	}
	for name, fs := range map[string]*store.FS{"p1": p1, "p2": p2} {
		if got, err := fs.Get(id); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("a local delete reached %s: %v", name, err)
		}
	}
	if st := b.Stats(); st.FanoutWrites != 2 {
		t.Fatalf("stats after delete: %+v, want the 2 fanout writes of the put alone", st)
	}
	if got, err := b.Get(id); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("deleted record not read-repaired from a peer: %v", err)
	}
	if st := b.Stats(); st.RepairHits != 1 {
		t.Fatalf("stats after the read: %+v, want 1 repair hit", st)
	}
}

// TestReadRepair pins the read path: a record only a peer holds is
// served through the composite and re-Put locally, so the next read
// never leaves the process. With probing off, a peer that fails once
// stays down even after it comes back.
func TestReadRepair(t *testing.T) {
	local := newFS(t)
	peer := &flakyBackend{inner: newFS(t)}
	peer.up.Store(true)
	b := newReplicated(t, replicate.Options{
		Local:         local,
		Peers:         []replicate.Peer{{Name: "peer", Backend: peer}},
		ProbeInterval: -1,
	})

	_, id, data := testRecord(2, "a")
	if err := peer.Put(id, data); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get(id)
	if err != nil {
		t.Fatalf("peer-held record not served: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("served different bytes than the peer holds")
	}
	if lgot, err := local.Get(id); err != nil || !bytes.Equal(lgot, data) {
		t.Fatalf("read-repair did not land locally: %v", err)
	}
	if st := b.Stats(); st.RepairHits != 1 {
		t.Fatalf("repair_hits = %d, want 1", st.RepairHits)
	}

	// The peer fails one read and is marked down. Once it is back, a read
	// it could answer and a write it could take both still skip it: only
	// the probe loop marks a peer healthy again.
	peer.up.Store(false)
	_, id2, data2 := testRecord(3, "a")
	if _, err := b.Get(id2); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("read with the peer down: %v, want a miss", err)
	}
	peer.up.Store(true)
	if err := peer.Put(id2, data2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(id2); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("a peer marked down answered a read: %v", err)
	}
	_, id3, data3 := testRecord(4, "a")
	if err := b.Put(id3, data3); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	if _, err := peer.Get(id3); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("fan-out reached a peer marked down: %v", err)
	}
	if st := b.Stats(); st.PeersHealthy != 0 || st.RepairHits != 1 {
		t.Fatalf("with probing off the peer came back: %+v", st)
	}
}

// TestDeadPeerSkipProbeRecoveryAndConvergence walks the full degraded
// lifecycle: a peer dies mid-run (fanout error, marked down), later
// writes skip it, the probe loop notices its recovery, and the next
// write reaches it by fan-out again.
func TestDeadPeerSkipProbeRecoveryAndConvergence(t *testing.T) {
	local := newFS(t)
	flaky := &flakyBackend{inner: newFS(t)}
	flaky.up.Store(true)
	b := newReplicated(t, replicate.Options{
		Local:         local,
		Peers:         []replicate.Peer{{Name: "flaky", Backend: flaky}},
		ProbeInterval: 10 * time.Millisecond,
	})

	// Healthy fanout first, so the death is observable as a transition.
	_, id1, data1 := testRecord(3, "a")
	if err := b.Put(id1, data1); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	if st := b.Stats(); st.PeersHealthy != 1 || st.FanoutWrites != 1 {
		t.Fatalf("healthy baseline: %+v", st)
	}

	// The peer dies; the queued op fails and marks it down.
	flaky.up.Store(false)
	_, id2, data2 := testRecord(4, "a")
	if err := b.Put(id2, data2); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	if st := b.Stats(); st.PeersHealthy != 0 || st.FanoutErrors == 0 {
		t.Fatalf("after peer death: %+v, want 0 healthy and a fanout error", st)
	}

	// Writes against a known-dead peer are skipped, not attempted.
	_, id3, data3 := testRecord(5, "a")
	if err := b.Put(id3, data3); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	if st := b.Stats(); st.DeadPeerSkips == 0 {
		t.Fatalf("dead peer not skipped: %+v", st)
	}

	// The peer recovers; the probe loop must notice without any call
	// from the write path.
	flaky.up.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().PeersHealthy != 1 {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never marked the recovered peer healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Recovery restores the fan-out: the next write reaches the peer.
	_, id4, data4 := testRecord(6, "a")
	if err := b.Put(id4, data4); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	if got, err := flaky.Get(id4); err != nil || !bytes.Equal(got, data4) {
		t.Fatalf("recovered peer did not receive the next write: %v", err)
	}
}

// link is one replica's in-process route to another replica's peer
// protocol: an http.RoundTripper that hands each request straight to
// the target's store.Handler while up and fails at the transport while
// down.
type link struct {
	h  http.Handler // set before the link first comes up
	up atomic.Bool
}

func (l *link) RoundTrip(r *http.Request) (*http.Response, error) {
	if !l.up.Load() {
		return nil, errDown
	}
	w := httptest.NewRecorder()
	l.h.ServeHTTP(w, r)
	return w.Result(), nil
}

// TestReadRepairAfterOutages is the case for converging by fan-out and
// read-repair alone. Three replicas in the symmetric topology — each a
// Shared Store over a replicating backend whose peers are the other
// two replicas' peer protocol — take Puts on random replicas interleaved
// with cuts and repairs of the six directed links between them. Once
// every link is back up, every replica serves every key ever put, and
// each id a replica was missing from its own disk costs it exactly one
// read-repair.
func TestReadRepairAfterOutages(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { readRepairAfterOutages(t, seed) })
	}
}

func readRepairAfterOutages(t *testing.T, seed uint64) {
	const n, steps = 3, 60
	locals := make([]*store.FS, n)
	repls := make([]*replicate.Backend, n)
	stores := make([]*store.Store, n)
	links := make([][]*link, n) // links[i][j] routes replica i's calls to replica j
	for i := range links {
		links[i] = make([]*link, n)
		for j := range links[i] {
			if j != i {
				links[i][j] = &link{}
			}
		}
	}
	for i := range n {
		locals[i] = newFS(t)
		var peers []replicate.Peer
		for j := range n {
			if j == i {
				continue
			}
			rb := remotebackend.New(fmt.Sprintf("http://replica-%d", j))
			rb.HTTPClient = &http.Client{Transport: links[i][j]}
			peers = append(peers, replicate.Peer{Name: fmt.Sprintf("replica-%d", j), Backend: rb})
		}
		repls[i] = newReplicated(t, replicate.Options{Local: locals[i], Peers: peers, ProbeInterval: time.Millisecond})
		st, err := store.Open(store.Options{Backend: repls[i], Shared: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		stores[i] = st
	}
	for _, row := range links {
		for j, l := range row {
			if l != nil {
				l.h = store.Handler(stores[j])
				l.up.Store(true)
			}
		}
	}

	type put struct {
		k     store.Key
		model string
	}
	var puts []put
	// cut[j] holds the ids put while the writer's link to j was down:
	// fan-out cannot have delivered them, so j must read-repair them.
	cut := make([]map[string]bool, n)
	for j := range cut {
		cut[j] = map[string]bool{}
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	for range steps {
		if rng.IntN(2) == 0 {
			i := rng.IntN(n)
			l := links[i][(i+1+rng.IntN(n-1))%n]
			l.up.Store(!l.up.Load())
			continue
		}
		w := rng.IntN(n)
		p := put{
			k:     store.Key{Kind: "search", Graph: fmt.Sprintf("outage-%d", len(puts)), GPUs: 8, Cluster: "test", Options: "o"},
			model: fmt.Sprintf("model-%d-%d", seed, len(puts)),
		}
		rec := &store.Record{Model: p.model, GPUs: 8, Plan: &export.StrategyJSON{SchemaVersion: export.SchemaVersion, Model: p.model, Workers: 8}}
		if err := stores[w].Put(p.k, rec); err != nil {
			t.Fatal(err)
		}
		repls[w].Flush()
		for j, l := range links[w] {
			if l != nil && !l.up.Load() {
				cut[j][p.k.ID()] = true
			}
		}
		puts = append(puts, p)
	}
	cuts := 0
	for _, c := range cut {
		cuts += len(c)
	}
	if cuts == 0 {
		t.Fatal("the schedule cut no fan-out, so nothing needs repair")
	}

	for _, row := range links {
		for _, l := range row {
			if l != nil {
				l.up.Store(true)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < n; {
		if repls[i].Stats().PeersHealthy == n-1 {
			i++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d never saw both peers healthy again: %+v", i, repls[i].Stats())
		}
		time.Sleep(time.Millisecond)
	}

	for i := range n {
		missing := 0
		for _, p := range puts {
			_, err := locals[i].Get(p.k.ID())
			switch {
			case errors.Is(err, store.ErrNotFound):
				missing++
			case err != nil:
				t.Fatal(err)
			case cut[i][p.k.ID()]:
				t.Errorf("replica %d holds %s although its fan-out was cut", i, p.model)
			}
		}
		before := repls[i].Stats().RepairHits
		for _, p := range puts {
			rec, ok := stores[i].Get(p.k)
			if !ok {
				t.Fatalf("replica %d misses %s", i, p.model)
			}
			if rec.Model != p.model || rec.Plan.Model != p.model {
				t.Fatalf("replica %d serves %q/%q for %s", i, rec.Model, rec.Plan.Model, p.model)
			}
		}
		if got := repls[i].Stats().RepairHits - before; got != uint64(missing) {
			t.Errorf("replica %d: %d read-repairs for %d ids missing from its disk", i, got, missing)
		}
	}
}

// node is one daemon-shaped participant in the kill-the-writer test: a
// filesystem corpus, a replicating backend fanning to the other nodes
// over the real HTTP peer protocol, a Store over the composite, and an
// httptest server exposing the Store's peer surface.
type node struct {
	repl *replicate.Backend
	st   *store.Store
	srv  *httptest.Server
}

// swapHandler lets the peer servers exist (URLs and all) before the
// Stores they will serve do — the same bootstrapping order real daemons
// have, where the listener binds before the fleet converges. Until the
// real handler arrives it serves an empty, valid corpus.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h != nil {
		h.ServeHTTP(w, r)
		return
	}
	if r.Method == http.MethodGet && r.URL.Path == "/v1/store" {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"records":[]}`)
		return
	}
	http.NotFound(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// TestKillTheWriter is the acceptance test from the issue: three nodes
// replicate one corpus over the real peer protocol, the node that
// searched (wrote) a plan is killed, and the survivors serve it warm —
// one from its own corpus, one via read-repair from the other survivor.
func TestKillTheWriter(t *testing.T) {
	const n = 3
	swaps := make([]*swapHandler, n)
	nodes := make([]*node, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
	}
	for i := range nodes {
		nodes[i] = &node{srv: httptest.NewServer(swaps[i])}
	}
	for i := range nodes {
		local := newFS(t)
		var peers []replicate.Peer
		for j := range nodes {
			if j == i {
				continue
			}
			peers = append(peers, replicate.Peer{
				Name:    fmt.Sprintf("node-%d", j),
				Backend: remotebackend.New(nodes[j].srv.URL),
			})
		}
		repl, err := replicate.New(replicate.Options{
			Local:         local,
			Peers:         peers,
			ProbeInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(store.Options{Backend: repl, Shared: true})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].repl, nodes[i].st = repl, st
		swaps[i].set(store.Handler(st))
		t.Cleanup(func() {
			st.Close()
			repl.Close()
			nodes[i].srv.Close()
		})
	}
	a, b, c := nodes[0], nodes[1], nodes[2]

	// A searches: the plan lands locally and fans out to B and C.
	k, id, _ := testRecord(20, "plan")
	rec := &store.Record{
		Model: "model-plan",
		GPUs:  8,
		Plan:  &export.StrategyJSON{SchemaVersion: export.SchemaVersion, Model: "model-plan", Workers: 8},
	}
	if err := a.st.Put(k, rec); err != nil {
		t.Fatal(err)
	}
	a.repl.Flush()
	if st := a.repl.Stats(); st.FanoutWrites != 2 {
		t.Fatalf("fanout writes = %d, want 2 (one per survivor)", st.FanoutWrites)
	}

	// Kill the writer. Its listener drops; its corpus is unreachable.
	a.srv.Close()

	// Survivor B serves the plan from its own corpus: the fanout landed
	// through the peer protocol and was indexed on arrival.
	if got, ok := b.st.Get(k); !ok {
		t.Fatal("survivor B cannot serve the plan the dead writer searched")
	} else if got.Model != rec.Model {
		t.Fatalf("survivor B serves the wrong record: %q", got.Model)
	}

	// Wipe survivor C's local copy — the replica that lost its disk.
	// Its next read falls through past dead A to B and repairs itself.
	if err := c.repl.Local().Delete(id); err != nil {
		t.Fatal(err)
	}
	data, err := c.repl.Get(id)
	if err != nil {
		t.Fatalf("wiped survivor C cannot repair the plan: %v", err)
	}
	var rehydrated store.Record
	if err := json.Unmarshal(data, &rehydrated); err != nil {
		t.Fatal(err)
	}
	if rehydrated.Model != rec.Model {
		t.Fatalf("repaired record is wrong: %q", rehydrated.Model)
	}
	if st := c.repl.Stats(); st.RepairHits != 1 {
		t.Fatalf("repair_hits = %d, want 1", st.RepairHits)
	}
	if lgot, err := c.repl.Local().Get(id); err != nil || len(lgot) == 0 {
		t.Fatalf("read-repair did not land in C's corpus: %v", err)
	}

	// C marked dead A down along the way; only B remains healthy.
	cs := c.repl.Stats()
	if cs.PeersHealthy != 1 {
		t.Fatalf("C sees %d healthy peers, want 1 (B)", cs.PeersHealthy)
	}
	for _, p := range cs.PeerDetail {
		if p.Name == "node-0" && p.Healthy {
			t.Fatal("C still believes the killed writer is healthy")
		}
	}
}

// TestListMergesNewestAcrossPeers pins the merged-listing contract a
// Shared store relies on at Open: the union of all reachable corpora,
// newest timestamp per id.
func TestListMergesNewestAcrossPeers(t *testing.T) {
	local, peer := newFS(t), newFS(t)
	b := newReplicated(t, replicate.Options{
		Local:         local,
		Peers:         []replicate.Peer{{Name: "peer", Backend: peer}},
		ProbeInterval: -1,
	})

	_, idA, dataA := testRecord(30, "a")
	_, idB, dataB := testRecord(31, "b")
	if err := local.Put(idA, dataA); err != nil {
		t.Fatal(err)
	}
	if err := peer.Put(idB, dataB); err != nil {
		t.Fatal(err)
	}
	ents, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, e := range ents {
		ids[e.ID] = true
	}
	if len(ents) != 2 || !ids[idA] || !ids[idB] {
		t.Fatalf("merged listing wrong: %v", ents)
	}
}

// TestCloseDrainsQueues pins shutdown: a Close right after a burst of
// Puts still applies every queued op before returning.
func TestCloseDrainsQueues(t *testing.T) {
	local, peer := newFS(t), newFS(t)
	b, err := replicate.New(replicate.Options{
		Local:         local,
		Peers:         []replicate.Peer{{Name: "peer", Backend: peer}},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 16; i++ {
		_, id, data := testRecord(40+i, "a")
		if err := b.Put(id, data); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := peer.Get(id); err != nil {
			t.Fatalf("Close lost a queued op for %s: %v", id[:12], err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}
