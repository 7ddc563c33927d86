package store

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSharedStoresSeeEachOthersWrites: two Stores opened Shared over
// one directory (the NFS-mount shape). A record one replica persists
// after the other opened is still a hit there — the index miss falls
// through to the backend.
func TestSharedStoresSeeEachOthersWrites(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, Options{Shared: true})
	s2 := open(t, dir, Options{Shared: true})

	if err := s1.Put(testKey(1), testRecord(1)); err != nil {
		t.Fatal(err)
	}
	rec, ok := s2.Get(testKey(1))
	if !ok {
		t.Fatal("peer write invisible to a shared store")
	}
	if rec.Model != "model-1" {
		t.Errorf("peer record mangled: %+v", rec)
	}
	// The fall-through hit is indexed from then on.
	if s2.Len() != 1 {
		t.Errorf("fall-through hit not indexed: len=%d", s2.Len())
	}
	if st := s2.Stats(); st.Hits != 1 {
		t.Errorf("fall-through not counted as a hit: %+v", st)
	}
}

// twoCopies is a minimal replicated backend, the shape store/replicate
// has: Put writes this process's copy and a peer's, a local miss is
// read-repaired from the peer, Delete (embedded) removes the local copy
// only, and Local exposes the copy this process owns.
type twoCopies struct {
	*FS
	peer *FS
}

func (b twoCopies) Put(id string, data []byte) error {
	if err := b.FS.Put(id, data); err != nil {
		return err
	}
	return b.peer.Put(id, data)
}

func (b twoCopies) Get(id string) ([]byte, error) {
	if data, err := b.FS.Get(id); err == nil {
		return data, nil
	}
	data, err := b.peer.Get(id)
	if err == nil {
		err = b.FS.Put(id, data) // read-repair
	}
	return data, err
}

func (b twoCopies) Local() Backend { return b.FS }

// TestSharedEvictionKeepsCorpus: a shared store's LRU bound deletes
// only what this process owns. Over a corpus it merely mounts (here a
// directory on shared storage) eviction trims the index alone — the
// bytes belong to the corpus owner — and an evicted record is still
// served through the backend. Over a replicated corpus eviction deletes
// the local copy, so MaxEntries bounds this replica's disk, and keeps
// the peer's, from which an evicted record is still served.
func TestSharedEvictionKeepsCorpus(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Shared: true, MaxEntries: 1})
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i), testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("shared index not bounded: len=%d", s.Len())
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, testKey(i).ID()+".json")); err != nil {
			t.Errorf("mount eviction deleted corpus record %d: %v", i, err)
		}
	}
	// An index-evicted record is still a hit via the backend.
	if _, ok := s.Get(testKey(0)); !ok {
		t.Error("index-evicted record not served from the shared corpus")
	}

	local, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Backend: twoCopies{local, peer}, Shared: true, MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 3; i++ {
		if err := r.Put(testKey(i), testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := func(fs *FS) int {
		ents, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	if l, p := count(local), count(peer); l != 1 || p != 3 {
		t.Fatalf("replicated eviction left %d local and %d peer records, want 1 and 3", l, p)
	}
	if _, ok := r.Get(testKey(0)); !ok {
		t.Fatal("evicted record not served from the peer's copy")
	}
	if l := count(local); l != 1 {
		t.Errorf("the read-back record pushed the local copies to %d, want 1", l)
	}
}

// TestExclusiveEvictionDeletesRecords pins the pre-existing contract
// for exclusive (non-shared) corpora: eviction reclaims the bytes.
func TestExclusiveEvictionDeletesRecords(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxEntries: 1})
	for i := 0; i < 2; i++ {
		if err := s.Put(testKey(i), testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, testKey(0).ID()+".json")); !os.IsNotExist(err) {
		t.Error("exclusive eviction left the record on disk")
	}
	if _, ok := s.Get(testKey(0)); ok {
		t.Error("evicted record resurrected through the fall-through path")
	}
}

// countingBackend counts Get calls through to an inner backend.
type countingBackend struct {
	Backend
	gets int
}

func (c *countingBackend) Get(id string) ([]byte, error) {
	c.gets++
	return c.Backend.Get(id)
}

// TestExclusiveMissSkipsBackendRead: an exclusive store's index is
// authoritative, so a miss costs no backend read (no ENOENT syscall,
// no HTTP round trip) on the cold-search path.
func TestExclusiveMissSkipsBackendRead(t *testing.T) {
	fs, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: fs}
	s, err := Open(Options{Backend: cb})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := cb.gets
	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("empty store reported a hit")
	}
	if cb.gets != before {
		t.Errorf("exclusive miss read the backend %d times", cb.gets-before)
	}
}

// TestExclusiveOpenReadsNoRecord: an exclusive open indexes the listing
// exactly like a shared one — Open costs one List, not a read per record.
func TestExclusiveOpenReadsNoRecord(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 10; i++ {
		if err := s.Put(testKey(i), testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	fs, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: fs}
	s2, err := Open(Options{Backend: cb})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if cb.gets != 0 {
		t.Errorf("Open read %d records from the backend, want 0", cb.gets)
	}
	if s2.Len() != 10 {
		t.Errorf("Open indexed %d records, want 10", s2.Len())
	}
	if _, ok := s2.Get(testKey(3)); !ok || cb.gets != 1 {
		t.Errorf("first Get: hit=%v after %d backend reads, want a hit after 1", ok, cb.gets)
	}
	// The key of a listed record is learnt by its first read.
	if keys := s2.Keys(); keys[0] != testKey(3) || keys[1] != (Key{}) {
		t.Errorf("Keys after one Get = %v…, want the read key first, then zero keys", keys[:2])
	}
}

// TestSharedOpenTrustsListing: a shared open indexes the corpus without
// replaying every record; garbage is only discovered (and dropped) when
// its key is actually requested.
func TestSharedOpenTrustsListing(t *testing.T) {
	dir := t.TempDir()
	k := testKey(1)
	if err := os.WriteFile(filepath.Join(dir, k.ID()+".json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{Shared: true})
	if s.Len() != 1 {
		t.Fatalf("shared open validated eagerly: len=%d, want 1 (trusted listing)", s.Len())
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("garbage served as a record")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("lazily discovered garbage not counted: %+v", st)
	}
	if s.Len() != 0 {
		t.Error("garbage entry not dropped after discovery")
	}
}
