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
	"sync/atomic"
	"testing"
	"time"

	"tapas/internal/export"
	"tapas/store"
	"tapas/store/backendtest"
	"tapas/store/remotebackend"
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

// TestRemoteBackendConformance runs the shared backend battery over the
// full HTTP loop: remotebackend client → peer protocol → owner store →
// filesystem.
func TestRemoteBackendConformance(t *testing.T) {
	dirs := map[store.Backend]string{}
	backendtest.Run(t, backendtest.Harness{
		Open: func(t *testing.T) store.Backend {
			_, srv, dir := owner(t)
			b := remotebackend.New(srv.URL)
			dirs[b] = dir
			return b
		},
		Corrupt: func(t *testing.T, b store.Backend, id string, data []byte) {
			// Behind the validating peer's back: straight into the
			// owner's directory.
			if err := os.WriteFile(filepath.Join(dirs[b], id+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	})
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
// replica's Store over the remote backend and the owner's Store share
// one corpus, in both directions, without either re-running anything.
func TestRemoteSharedCorpus(t *testing.T) {
	ownerStore, srv, _ := owner(t)
	replica, err := store.Open(store.Options{Backend: remotebackend.New(srv.URL), Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	// Replica → owner: a record the replica persists is indexed by the
	// owner immediately (PutRaw), so the owner's own lookups hit.
	if err := replica.Put(testKey(0), testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ownerStore.Get(testKey(0)); !ok {
		t.Fatal("replica write invisible to the corpus owner")
	}

	// Owner → replica: a record the owner persists after the replica
	// opened is still a replica hit (index fall-through).
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
func replicaPut(b store.Backend, id string, rec *store.Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return b.Put(id, data)
}

// TestRemoteOpenWithoutPeer: a replica booted before its corpus owner
// starts empty and serves cold instead of failing.
func TestRemoteOpenWithoutPeer(t *testing.T) {
	srv := httptest.NewServer(nil)
	url := srv.URL
	srv.Close() // nobody home

	s, err := store.Open(store.Options{Backend: remotebackend.New(url), Shared: true})
	if err != nil {
		t.Fatalf("unreachable peer must not fail a shared open: %v", err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Errorf("len=%d, want 0", s.Len())
	}
	if st := s.Stats(); st.ReadErrors == 0 {
		t.Errorf("unreachable peer not surfaced in stats: %+v", st)
	}
	if _, ok := s.Get(testKey(0)); ok {
		t.Error("hit against an unreachable corpus")
	}
}

// TestRemoteGetRefusesOversizedRecord: a payload past the 32 MB read
// limit is an error, not a truncated record. A Store over the peer then
// counts a read error and deletes nothing, where cut bytes would decode
// as corrupt and the Store would delete the peer's good copy.
func TestRemoteGetRefusesOversizedRecord(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 32<<20+1)
	var deletes atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodDelete:
			deletes.Add(1)
			w.WriteHeader(http.StatusNoContent)
		case r.URL.Path == "/v1/store":
			fmt.Fprint(w, `{"records":[]}`)
		default:
			_, _ = w.Write(payload)
		}
	}))
	defer srv.Close()
	b := remotebackend.New(srv.URL)
	if data, err := b.Get(testKey(0).ID()); err == nil || errors.Is(err, store.ErrNotFound) {
		t.Fatalf("oversized record: got %d bytes and err %v, want a read error", len(data), err)
	}

	s, err := store.Open(store.Options{Backend: b, Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("hit on an oversized record")
	}
	if st := s.Stats(); st.ReadErrors != 1 || st.Corrupt != 0 {
		t.Errorf("store stats %+v, want one read error and nothing corrupt", st)
	}
	if n := deletes.Load(); n != 0 {
		t.Errorf("the store sent %d deletes to the peer", n)
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
