package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tapas/internal/export"
)

func testKey(i int) Key {
	return Key{Kind: "search", Graph: fmt.Sprintf("fp-%d", i), GPUs: 8, Cluster: "v100", Options: "o"}
}

func testRecord(i int) *Record {
	return &Record{
		Model: fmt.Sprintf("model-%d", i),
		GPUs:  8,
		Plan: &export.StrategyJSON{
			SchemaVersion: export.SchemaVersion,
			Model:         fmt.Sprintf("model-%d", i),
			Workers:       8,
			CostSeconds:   0.25,
		},
		Timing: Timing{TotalTime: time.Millisecond, Classes: i},
	}
}

func open(t *testing.T, dir string, opts ...Options) *Store {
	t.Helper()
	o := Options{Dir: dir}
	if len(opts) > 0 {
		o = opts[0]
		o.Dir = dir
	}
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	k := testKey(1)
	if err := s.Put(k, testRecord(1)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("stored record not found")
	}
	if got.Model != "model-1" || got.Plan == nil || got.Plan.Workers != 8 {
		t.Errorf("round trip mangled the record: %+v", got)
	}
	if got.SchemaVersion != RecordSchemaVersion {
		t.Errorf("schema_version = %d, want %d", got.SchemaVersion, RecordSchemaVersion)
	}
	if got.Key != k {
		t.Errorf("key not stamped: %+v", got.Key)
	}
	if got.CreatedUnixMS == 0 {
		t.Error("created_unix_ms not stamped")
	}
	if _, ok := s.Get(testKey(2)); ok {
		t.Error("missing key reported as present")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats wrong: %+v", st)
	}
}

// TestTimingReadsNanosecondRecords: a timing block written with int64
// nanosecond fields (records that predate the reconstruct and simulate
// durations) decodes to the same durations and counters, and
// re-encodes to the same bytes.
func TestTimingReadsNanosecondRecords(t *testing.T) {
	const old = `{"group_ns":1500,"mine_ns":2500,"search_ns":7000,"enum_ns":4000,` +
		`"assemble_ns":3000,"total_ns":12000,"classes":13,"examined":4578,` +
		`"pruned":15417,"unique_graphs":13,"mine_levels":5}`
	var got Timing
	if err := json.Unmarshal([]byte(old), &got); err != nil {
		t.Fatal(err)
	}
	want := Timing{
		GroupTime: 1500, MineTime: 2500, SearchTime: 7000, EnumTime: 4000,
		AssembleTime: 3000, TotalTime: 12000,
		Classes: 13, Examined: 4578, Pruned: 15417, UniqueGraphs: 13, MineLevels: 5,
	}
	if got != want {
		t.Errorf("decoded %+v\nwant    %+v", got, want)
	}
	again, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != old {
		t.Errorf("re-encoded %s\nwant       %s", again, old)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i), testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := open(t, dir)
	if s2.Len() != 3 {
		t.Fatalf("reopened store has %d records, want 3", s2.Len())
	}
	for i := 0; i < 3; i++ {
		rec, ok := s2.Get(testKey(i))
		if !ok {
			t.Fatalf("record %d lost across restart", i)
		}
		if rec.Timing.Classes != i {
			t.Errorf("record %d timing mangled: %+v", i, rec.Timing)
		}
	}
}

func TestAsyncWriteBehindAndFlush(t *testing.T) {
	s := open(t, t.TempDir())
	for i := 0; i < 10; i++ {
		s.PutAsync(testKey(i), testRecord(i))
	}
	s.Flush()
	if n := s.Len(); n != 10 {
		t.Fatalf("after flush: %d records, want 10", n)
	}
	if st := s.Stats(); st.Dropped != 0 {
		t.Errorf("flushed writes counted as dropped: %+v", st)
	}
}

func TestCloseDrainsQueue(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 5; i++ {
		s.PutAsync(testKey(i), testRecord(i))
	}
	s.Close()
	// Writes queued before Close must be on disk afterwards.
	s2 := open(t, dir)
	if s2.Len() != 5 {
		t.Fatalf("close lost queued writes: %d on disk, want 5", s2.Len())
	}
	// After Close, PutAsync drops (and counts) instead of panicking.
	s.PutAsync(testKey(99), testRecord(99))
	if st := s.Stats(); st.Dropped != 1 {
		t.Errorf("post-close write not counted as dropped: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxEntries: 3})
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i), testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 0 so 1 becomes the LRU.
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("warm-up get failed")
	}
	if err := s.Put(testKey(3), testRecord(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Error("LRU record survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := s.Get(testKey(i)); !ok {
			t.Errorf("record %d evicted out of LRU order", i)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Errorf("eviction stats wrong: %+v", st)
	}
}

func TestEvictionOrderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxEntries: 10})
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i), testRecord(i)); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes even on coarse filesystem clocks.
		path := filepath.Join(dir, testKey(i).ID()+".json")
		mt := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Reopened with a tighter bound: the oldest records go first.
	s2 := open(t, dir, Options{MaxEntries: 1})
	if s2.Len() != 1 {
		t.Fatalf("reopened bounded store has %d records, want 1", s2.Len())
	}
	if _, ok := s2.Get(testKey(2)); !ok {
		t.Error("newest record did not survive the bounded reopen")
	}
}

// TestHitRecencySurvivesReopen: a hit refreshes the record's backend
// timestamp, so the LRU bound keeps what is being used across a
// restart — the oldest-written record outlives a newer one it was
// served after.
func TestHitRecencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 2; i++ {
		if err := s.Put(testKey(i), testRecord(i)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, testKey(i).ID()+".json")
		mt := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(testKey(0)); !ok { // refreshes the older record
		t.Fatal("warm-up get failed")
	}
	s.Close()

	s2 := open(t, dir, Options{MaxEntries: 1})
	if _, ok := s2.Get(testKey(0)); !ok {
		t.Error("the just-served record did not survive the bounded reopen")
	}
	if _, ok := s2.Get(testKey(1)); ok {
		t.Error("the unserved record outlived the one served after it")
	}
}

// TestCorruptRecordsDroppedOnFirstGet: Open reads no record, so a
// corrupt one costs nothing until it is asked for; its first Get drops
// it from index and disk, reports it and counts it, and the valid
// neighbour is served throughout.
func TestCorruptRecordsDroppedOnFirstGet(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Put(testKey(1), testRecord(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Truncated JSON under a plausible name.
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("ab", 32)+".json"), []byte(`{"schema_version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Valid JSON whose key does not hash to its filename.
	stray, _ := json.Marshal(&Record{SchemaVersion: 1, Key: testKey(7), Plan: &export.StrategyJSON{SchemaVersion: 1}})
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("cd", 32)+".json"), stray, 0o644); err != nil {
		t.Fatal(err)
	}
	// A record from the future.
	futurePath := filepath.Join(dir, testKey(8).ID()+".json")
	future, _ := json.Marshal(&Record{SchemaVersion: RecordSchemaVersion + 1, Key: testKey(8), Plan: &export.StrategyJSON{SchemaVersion: 1}})
	if err := os.WriteFile(futurePath, future, 0o644); err != nil {
		t.Fatal(err)
	}
	// A leftover temp file from an interrupted write, aged past the
	// reap threshold — a fresh one could belong to a concurrent Put
	// (a replication peer's fan-out) and must be left alone.
	if err := os.WriteFile(filepath.Join(dir, "zz-123.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-2 * time.Minute)
	if err := os.Chtimes(filepath.Join(dir, "zz-123.tmp"), stale, stale); err != nil {
		t.Fatal(err)
	}
	// A fresh temp file: a write in flight right now, not reapable.
	if err := os.WriteFile(filepath.Join(dir, "zz-456.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}

	var reported []string
	s2, err := Open(Options{Dir: dir, OnCorrupt: func(path string, err error) {
		reported = append(reported, filepath.Base(path))
	}})
	if err != nil {
		t.Fatalf("corrupt records must not fail Open: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 4 || len(reported) != 0 {
		t.Errorf("Open indexed %d records and reported %v, want all 4 listed and none read", s2.Len(), reported)
	}
	if _, err := os.Stat(filepath.Join(dir, "zz-123.tmp")); !os.IsNotExist(err) {
		t.Error("stale leftover temp file not cleaned up")
	}
	if _, err := os.Stat(filepath.Join(dir, "zz-456.tmp")); err != nil {
		t.Error("fresh temp file reaped — a concurrent Put's rename would break")
	}

	if _, ok := s2.Get(testKey(1)); !ok {
		t.Error("valid record lost among corrupt neighbors")
	}
	if _, ok := s2.Get(testKey(8)); ok {
		t.Fatal("future-schema record served")
	}
	if len(reported) != 1 || reported[0] != testKey(8).ID()+".json" {
		t.Errorf("first Get reported %v, want only the future-schema record", reported)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(futurePath); !os.IsNotExist(err) {
		t.Error("future-schema record left on disk after its first Get")
	}
	if s2.Len() != 3 {
		t.Errorf("index holds %d records after the drop, want 3", s2.Len())
	}
	// No key hashes to the two misnamed records, so no Get reaches them
	// — not even one for the key the stray carries.
	if _, ok := s2.Get(testKey(7)); ok {
		t.Error("stray record served under the key it carries")
	}
	if _, ok := s2.Get(testKey(1)); !ok || len(reported) != 1 {
		t.Errorf("valid record not served again, or more reports: %v", reported)
	}
}

func TestCorruptionAfterOpenIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	k := testKey(1)
	if err := s.Put(k, testRecord(1)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file behind the index's back.
	if err := os.WriteFile(filepath.Join(dir, k.ID()+".json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("corrupted record served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", st.Corrupt)
	}
	// The dead entry is dropped: the next Get is a plain miss.
	if _, ok := s.Get(k); ok {
		t.Error("dropped record resurrected")
	}
}

func TestWriteErrorsCountedNotCorrupt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "plans")
	var (
		mu       sync.Mutex
		reported []error
	)
	s := open(t, dir, Options{OnCorrupt: func(path string, err error) {
		mu.Lock()
		reported = append(reported, err)
		mu.Unlock()
	}})
	// Yank the directory out from under the writer: every persist now
	// fails at the filesystem, which must be counted as a write error —
	// not corruption — and reported, never fatal.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s.PutAsync(testKey(1), testRecord(1))
	s.Flush()
	st := s.Stats()
	if st.WriteErrors != 1 {
		t.Errorf("write_errors = %d, want 1", st.WriteErrors)
	}
	if st.Corrupt != 0 {
		t.Errorf("failed write miscounted as corrupt: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reported) != 1 || !strings.Contains(reported[0].Error(), "write-behind persist failed") {
		t.Errorf("failed write not reported usefully: %v", reported)
	}
}

func TestDelete(t *testing.T) {
	s := open(t, t.TempDir())
	k := testKey(1)
	if err := s.Put(k, testRecord(1)); err != nil {
		t.Fatal(err)
	}
	s.Delete(k)
	if _, ok := s.Get(k); ok {
		t.Error("deleted record still served")
	}
	if s.Len() != 0 {
		t.Error("deleted record still indexed")
	}
	s.Delete(k) // idempotent
}

func TestConcurrentAccess(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxEntries: 16})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := testKey(i % 5)
				switch i % 3 {
				case 0:
					_ = s.Put(k, testRecord(i%5))
				case 1:
					s.PutAsync(k, testRecord(i%5))
				default:
					s.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	s.Flush()
	if s.Len() == 0 {
		t.Error("no records after concurrent writes")
	}
}
