// Package backendtest is the conformance battery every store.Backend
// implementation must pass. It pins the byte-level contract — exact
// round trips, atomic overwrite, idempotent delete, ErrNotFound
// wrapping, survival of concurrent same-key publishes — plus the
// store-level guarantee that a corrupt record in the corpus is dropped
// on its first read, not fatal. The store package runs it against the
// filesystem backend and store/replicate against its composite;
// store/remotebackend runs the byte-level part without Delete
// (RunPeer) against the HTTP peer protocol, so the replication peer
// client and the filesystem can never drift apart.
package backendtest

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tapas/internal/export"
	"tapas/store"
	"tapas/store/replicate"
)

// Harness adapts one backend implementation to the battery.
type Harness struct {
	// Open returns a fresh backend over an empty corpus, retired with
	// the test.
	Open func(t *testing.T) store.Backend
	// Corrupt plants raw bytes under id while bypassing any validation
	// the backend's Put performs (e.g. by writing the corpus owner's
	// file directly). nil skips the corruption battery.
	Corrupt func(t *testing.T, b store.Backend, id string, data []byte)
}

// record builds one valid, self-consistent record payload; variant
// distinguishes payloads stored under the same key.
func record(i int, variant string) (store.Key, string, []byte) {
	k := store.Key{Kind: "search", Graph: fmt.Sprintf("backendtest-%d", i), GPUs: 8, Cluster: "test", Options: "o"}
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

// Run exercises the full battery against the harness's backend.
func Run(t *testing.T, h Harness) {
	RunPeer(t, func(t *testing.T) replicate.PeerBackend { return h.Open(t) })

	t.Run("Delete", func(t *testing.T) {
		b := h.Open(t)
		_, id, data := record(2, "a")
		if err := b.Put(id, data); err != nil {
			t.Fatal(err)
		}
		if err := b.Delete(id); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Get(id); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("deleted record still served: %v", err)
		}
		if ents, err := b.List(); err != nil || len(ents) != 0 {
			t.Errorf("deleted record still listed: %v %v", ents, err)
		}
		if err := b.Delete(id); err != nil {
			t.Errorf("delete of absent id must be idempotent: %v", err)
		}
	})

	if h.Corrupt == nil {
		return
	}
	t.Run("CorruptionSkipOnList", func(t *testing.T) {
		b := h.Open(t)
		k, id, data := record(5, "a")
		if err := b.Put(id, data); err != nil {
			t.Fatal(err)
		}
		badK, badID, _ := record(6, "a")
		h.Corrupt(t, b, badID, []byte("this is not a record"))

		// The byte layer lists what it holds, garbage included …
		ents, err := b.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 2 {
			t.Fatalf("list hid the corrupt record: %d entries, want 2", len(ents))
		}
		// … and the Store over it opens without reading either, serves
		// the valid neighbor, and drops and reports the garbage on its
		// first read.
		var reported int
		s, err := store.Open(store.Options{Backend: b, OnCorrupt: func(string, error) { reported++ }})
		if err != nil {
			t.Fatalf("corrupt records must not fail Open: %v", err)
		}
		defer s.Close()
		if s.Len() != 2 || reported != 0 {
			t.Errorf("Open indexed %d records and reported %d, want both listed and none read", s.Len(), reported)
		}
		if _, ok := s.Get(k); !ok {
			t.Error("valid record lost next to a corrupt neighbor")
		}
		if _, ok := s.Get(badK); ok {
			t.Fatal("garbage served as a record")
		}
		if reported != 1 || s.Stats().Corrupt != 1 || s.Len() != 1 {
			t.Errorf("first read of the garbage: reported %d, corrupt %d, indexed %d; want 1, 1, 1",
				reported, s.Stats().Corrupt, s.Len())
		}
		if _, err := b.Get(badID); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("dropped garbage still at the backend: %v", err)
		}
	})
}

// RunPeer exercises the byte-level battery, the part without Delete,
// against a replication peer client; open returns one over a fresh,
// empty corpus. Run includes it.
func RunPeer(t *testing.T, open func(t *testing.T) replicate.PeerBackend) {
	t.Run("RoundTrip", func(t *testing.T) {
		b := open(t)
		_, id, data := record(1, "a")
		if err := b.Put(id, data); err != nil {
			t.Fatal(err)
		}
		got, err := b.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("round trip changed the payload: %d bytes in, %d out", len(data), len(got))
		}
		info, err := b.Stat(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.ID != id || info.Size != int64(len(data)) {
			t.Errorf("stat: %+v, want id %s size %d", info, id, len(data))
		}
		if info.ModTime.IsZero() || time.Since(info.ModTime) > time.Hour {
			t.Errorf("stat mod time implausible: %v", info.ModTime)
		}
		ents, err := b.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].ID != id {
			t.Errorf("list: %+v, want exactly %s", ents, id)
		}
	})

	t.Run("Overwrite", func(t *testing.T) {
		b := open(t)
		_, id, v1 := record(1, "a")
		_, _, v2 := record(1, "b")
		if err := b.Put(id, v1); err != nil {
			t.Fatal(err)
		}
		if err := b.Put(id, v2); err != nil {
			t.Fatal(err)
		}
		got, err := b.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, v2) {
			t.Error("overwrite did not replace the payload")
		}
		ents, err := b.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 {
			t.Errorf("overwrite duplicated the record: %d entries", len(ents))
		}
	})

	t.Run("MissingKey", func(t *testing.T) {
		b := open(t)
		_, id, _ := record(404, "a")
		if _, err := b.Get(id); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("get of absent id: %v, want ErrNotFound", err)
		}
		if _, err := b.Stat(id); !errors.Is(err, store.ErrNotFound) {
			t.Errorf("stat of absent id: %v, want ErrNotFound", err)
		}
	})

	t.Run("ConcurrentPutSameKey", func(t *testing.T) {
		b := open(t)
		const writers = 8
		payloads := make([][]byte, writers)
		var id string
		for g := 0; g < writers; g++ {
			_, id, payloads[g] = record(3, fmt.Sprintf("g%d", g))
		}
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = b.Put(id, payloads[g])
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("concurrent put %d: %v", g, err)
			}
		}
		got, err := b.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		intact := false
		for _, p := range payloads {
			if bytes.Equal(got, p) {
				intact = true
				break
			}
		}
		if !intact {
			t.Error("concurrent puts left a torn payload: the stored bytes match none of the writers")
		}
	})

	t.Run("MalformedID", func(t *testing.T) {
		b := open(t)
		_, _, data := record(4, "a")
		if err := b.Put("../escape", data); err == nil {
			t.Error("path-shaped id accepted by Put")
		}
		if _, err := b.Get("../escape"); err == nil {
			t.Error("path-shaped id accepted by Get")
		}
	})
}
