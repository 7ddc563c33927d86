package remotebackend_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tapas/internal/export"
	"tapas/store"
	"tapas/store/backendtest"
	"tapas/store/remotebackend"
	"tapas/store/replicate"
)

// owner spins one corpus-owning daemon surface: a filesystem store and
// an httptest server mounting its peer protocol.
func owner(t *testing.T) (*store.Store, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.Handler(st))
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return st, srv, dir
}

// TestRemoteBackendConformance runs the byte-level backend battery over
// the full HTTP loop: remotebackend client → peer protocol → owner store
// → filesystem.
func TestRemoteBackendConformance(t *testing.T) {
	backendtest.RunPeer(t, func(t *testing.T) replicate.PeerBackend {
		_, srv, _ := owner(t)
		return remotebackend.New(srv.URL)
	})
}

// TestRemoteIsNotAStoreBackend: the peer client has no Delete, so no
// Store can be opened over another daemon's corpus; replication is the
// only way to reach one.
func TestRemoteIsNotAStoreBackend(t *testing.T) {
	var b any = remotebackend.New("http://peer")
	if _, ok := b.(store.Backend); ok {
		t.Error("*remotebackend.Backend satisfies store.Backend")
	}
	if _, ok := b.(replicate.PeerBackend); !ok {
		t.Error("*remotebackend.Backend does not satisfy replicate.PeerBackend")
	}
}

// openReplica opens a replicated Store over a fresh local directory with
// the daemon at url as its one peer, probing disabled.
func openReplica(t *testing.T, url string) (*store.Store, *replicate.Backend, *store.FS) {
	t.Helper()
	local, err := store.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	repl, err := replicate.New(replicate.Options{
		Local:         local,
		Peers:         []replicate.Peer{{Name: url, Backend: remotebackend.New(url)}},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Backend: repl})
	if err != nil {
		repl.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		st.Close()
		repl.Close()
	})
	return st, repl, local
}

func testKey(i int) store.Key {
	return store.Key{Kind: "search", Graph: "remote-fp", GPUs: 8, Cluster: "v100", Options: string(rune('a' + i))}
}

func testRecord(i int) *store.Record {
	return &store.Record{
		Model: "model",
		GPUs:  8,
		Plan:  &export.StrategyJSON{SchemaVersion: export.SchemaVersion, Model: "model", Workers: 8},
	}
}

// TestRemoteSharedCorpus is the multi-replica contract end to end: a
// replica replicating with a peer daemon through the remote backend and
// that daemon's own Store share every record, in both directions,
// without either re-running anything.
func TestRemoteSharedCorpus(t *testing.T) {
	ownerStore, srv, _ := owner(t)
	replica, repl, _ := openReplica(t, srv.URL)

	// Replica → owner: a record the replica persists fans out to the
	// owner, which indexes it on arrival (PutRaw), so the owner's own
	// lookups hit.
	if err := replica.Put(testKey(0), testRecord(0)); err != nil {
		t.Fatal(err)
	}
	repl.Flush()
	if _, ok := ownerStore.Get(testKey(0)); !ok {
		t.Fatal("replica write invisible to the corpus owner")
	}

	// Owner → replica: a record the owner persists after the replica
	// opened is still a replica hit (the index miss reads through).
	if err := ownerStore.Put(testKey(1), testRecord(1)); err != nil {
		t.Fatal(err)
	}
	rec, ok := replica.Get(testKey(1))
	if !ok {
		t.Fatal("owner write invisible to the replica")
	}
	if rec.Plan == nil || rec.Model != "model" {
		t.Errorf("record mangled over the wire: %+v", rec)
	}

	// Write-behind works over the wire too.
	replica.PutAsync(testKey(2), testRecord(2))
	replica.Flush()
	repl.Flush()
	if _, ok := ownerStore.Get(testKey(2)); !ok {
		t.Error("async replica write did not reach the owner")
	}
}

// TestRemotePutRejectsGarbage: the peer validates on the way in, and
// the rejection is typed.
func TestRemotePutRejectsGarbage(t *testing.T) {
	_, srv, _ := owner(t)
	b := remotebackend.New(srv.URL)
	id := testKey(0).ID()
	if err := b.Put(id, []byte("not a record")); !errors.Is(err, store.ErrInvalidRecord) {
		t.Errorf("garbage accepted or mistyped: %v", err)
	}
	// A valid record under the wrong id is rejected too.
	rec := testRecord(1)
	rec.SchemaVersion = store.RecordSchemaVersion
	rec.Key = testKey(1)
	if err := replicaPut(b, id, rec); !errors.Is(err, store.ErrInvalidRecord) {
		t.Errorf("key/id mismatch accepted: %v", err)
	}
}

// replicaPut marshals rec and publishes it under id, bypassing the
// Store's own key stamping (to exercise peer-side validation).
func replicaPut(b *remotebackend.Backend, id string, rec *store.Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return b.Put(id, data)
}

// TestRemoteOpenWithoutPeer: a replica booted before its peer opens
// its own corpus, marks the peer down and serves cold instead of
// failing.
func TestRemoteOpenWithoutPeer(t *testing.T) {
	srv := httptest.NewServer(nil)
	url := srv.URL
	srv.Close() // nobody home

	s, repl, _ := openReplica(t, url)
	if s.Len() != 0 {
		t.Errorf("len=%d, want 0", s.Len())
	}
	if st := repl.Stats(); st.PeersHealthy != 0 {
		t.Errorf("unreachable peer not marked down: %+v", st)
	}
	if _, ok := s.Get(testKey(0)); ok {
		t.Error("hit against an unreachable peer")
	}
}

// TestRemoteGetRefusesOversizedRecord: a payload past the 32 MB read
// limit is an error, not a truncated record. A replica reading through
// the peer then misses, and neither copies the cut bytes into its own
// corpus nor counts a corrupt record.
func TestRemoteGetRefusesOversizedRecord(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 32<<20+1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/store" {
			fmt.Fprint(w, `{"records":[]}`)
			return
		}
		_, _ = w.Write(payload)
	}))
	defer srv.Close()
	b := remotebackend.New(srv.URL)
	if data, err := b.Get(testKey(0).ID()); err == nil || errors.Is(err, store.ErrNotFound) {
		t.Fatalf("oversized record: got %d bytes and err %v, want a read error", len(data), err)
	}

	s, _, local := openReplica(t, srv.URL)
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("hit on an oversized record")
	}
	if st := s.Stats(); st.Corrupt != 0 {
		t.Errorf("store stats %+v, want nothing corrupt", st)
	}
	if ents, err := local.List(); err != nil || len(ents) != 0 {
		t.Errorf("the replica's own corpus holds %v (err %v), want nothing", ents, err)
	}
}

// TestReplicaDropLeavesPeerFile: a replica that reads a peer's record
// it cannot use — here a future schema, as during a rolling upgrade —
// drops its own copy only. The peer's file stays as it was.
func TestReplicaDropLeavesPeerFile(t *testing.T) {
	_, srv, dir := owner(t)
	k := testKey(0)
	future, err := json.Marshal(&store.Record{
		SchemaVersion: store.RecordSchemaVersion + 1,
		Key:           k,
		Plan:          &export.StrategyJSON{SchemaVersion: export.SchemaVersion},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Straight into the peer's directory: its PutRaw would refuse it.
	path := filepath.Join(dir, k.ID()+".json")
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}

	s, repl, local := openReplica(t, srv.URL)
	if _, ok := s.Get(k); ok {
		t.Fatal("future-schema record served")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("store stats %+v, want the record counted corrupt", st)
	}
	if repl.Stats().RepairHits != 1 {
		t.Errorf("the record was not read through the peer: %+v", repl.Stats())
	}
	if _, err := local.Stat(k.ID()); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("the replica kept its copy of the dropped record: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, future) {
		t.Errorf("the peer's file changed: %v", err)
	}
}

// TestRemoteStatAndList: metadata round trip incl. the mod-time header.
func TestRemoteStatAndList(t *testing.T) {
	ownerStore, srv, _ := owner(t)
	if err := ownerStore.Put(testKey(0), testRecord(0)); err != nil {
		t.Fatal(err)
	}
	b := remotebackend.New(srv.URL)
	info, err := b.Stat(testKey(0).ID())
	if err != nil {
		t.Fatal(err)
	}
	if info.Size <= 0 {
		t.Errorf("stat size = %d", info.Size)
	}
	if time.Since(info.ModTime) > time.Hour || info.ModTime.IsZero() {
		t.Errorf("stat mod time implausible: %v", info.ModTime)
	}
	ents, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].ID != testKey(0).ID() || ents[0].ModTime.IsZero() {
		t.Errorf("listing wrong: %+v", ents)
	}
}
