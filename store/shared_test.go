package store

import (
	"os"
	"path/filepath"
	"testing"
)

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

// newFS opens a filesystem backend over a fresh directory.
func newFS(t *testing.T) *FS {
	t.Helper()
	fs, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// openReplicated opens a Store over b, which Open recognises as
// replicated by its Local().
func openReplicated(t *testing.T, b Backend, opts ...Options) *Store {
	t.Helper()
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o.Backend = b
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSharedStoresSeeEachOthersWrites: two replicated Stores, each
// owning one directory and holding the other as its peer. A record one
// replica persists after the other opened is still a hit there — a
// replicated store's index miss reads through the backend.
func TestSharedStoresSeeEachOthersWrites(t *testing.T) {
	a, b := newFS(t), newFS(t)
	s1 := openReplicated(t, twoCopies{a, b})
	s2 := openReplicated(t, twoCopies{b, a})

	if err := s1.Put(testKey(1), testRecord(1)); err != nil {
		t.Fatal(err)
	}
	rec, ok := s2.Get(testKey(1))
	if !ok {
		t.Fatal("peer write invisible to a replicated store")
	}
	if rec.Model != "model-1" {
		t.Errorf("peer record mangled: %+v", rec)
	}
	// The read-through hit is indexed from then on.
	if s2.Len() != 1 {
		t.Errorf("read-through hit not indexed: len=%d", s2.Len())
	}
	if st := s2.Stats(); st.Hits != 1 {
		t.Errorf("read-through not counted as a hit: %+v", st)
	}
}

// TestSharedEvictionKeepsCorpus: a replicated store's LRU bound deletes
// only what this process owns. Eviction deletes the local copy, so
// MaxEntries bounds this replica's disk, and keeps the peer's, from
// which an evicted record is still served.
func TestSharedEvictionKeepsCorpus(t *testing.T) {
	local, peer := newFS(t), newFS(t)
	r := openReplicated(t, twoCopies{local, peer}, Options{MaxEntries: 1})
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

// TestOpenRejectsSharedOnExclusiveBackend: the deprecated Options.Shared
// cannot turn a directory this store would evict from into a shared
// one. Open rejects it on a backend without Local() and ignores it on a
// replicated one.
func TestOpenRejectsSharedOnExclusiveBackend(t *testing.T) {
	if s, err := Open(Options{Dir: t.TempDir(), Shared: true}); err == nil {
		s.Close()
		t.Error("Open accepted Shared on a filesystem directory")
	}
	if s, err := Open(Options{Backend: newFS(t), Shared: true}); err == nil {
		s.Close()
		t.Error("Open accepted Shared on a filesystem backend")
	}
	local, peer := newFS(t), newFS(t)
	if err := peer.Put(testKey(1).ID(), mustEncode(t, testKey(1), testRecord(1))); err != nil {
		t.Fatal(err)
	}
	s := openReplicated(t, twoCopies{local, peer}, Options{Shared: true})
	if _, ok := s.Get(testKey(1)); !ok {
		t.Error("Shared on a replicated backend changed how it reads")
	}
}

// mustEncode encodes rec under k.
func mustEncode(t *testing.T, k Key, rec *Record) []byte {
	t.Helper()
	data, err := Encode(k, rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
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

// TestSharedOpenTrustsListing: a replicated open indexes the local
// corpus without replaying every record; garbage is only discovered
// (and dropped) when its key is actually requested.
func TestSharedOpenTrustsListing(t *testing.T) {
	local := newFS(t)
	k := testKey(1)
	if err := os.WriteFile(local.Path(k.ID()), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openReplicated(t, twoCopies{local, newFS(t)})
	if s.Len() != 1 {
		t.Fatalf("replicated open validated eagerly: len=%d, want 1 (trusted listing)", s.Len())
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
