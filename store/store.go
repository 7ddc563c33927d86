// Package store persists search plans across process restarts and
// shares them across replicas: a content-addressed store of plan
// records keyed by the same identity the Engine's in-memory result cache
// uses — structural graph fingerprint × cluster signature × option set.
// A tapas-serve daemon opened over a warm store answers repeat traffic
// without re-running the search pipeline: the plan is rehydrated from
// its per-node pattern names, re-priced and re-simulated, all orders of
// magnitude cheaper than a cold search, and the plan document is served
// as the bytes the cold search rendered.
//
// A record (schema version 2) is one JSON object laid out as a compact
// header followed by the plan document: the header holds the key, the
// timing, the plan's pattern names and pinned cost, a digest of the
// graph names the document was rendered from, and the document's length
// and CRC-32C; the document is the exact two-space-indented plan
// (Result.PlanDocument) under "plan", the object's last field. A reader
// decodes the header and checks the CRC without scanning the document.
// Version 1 records, whose plan is an ordinary field of one JSON
// object (compact or indented), are still read.
//
// Bytes live behind the pluggable Backend interface: the filesystem
// backend (one file per record, atomic temp+rename writes) is the
// default, and store/replicate wraps one so each replica owns a local
// corpus, fans its writes out to its peers (through store/remotebackend)
// and reads through them on a miss — any cold search by one replica
// warms all of them. A store over a backend with Local() (the copy this
// process owns) is replicated, any other is exclusive; either way it
// evicts, drops and serves peers from its own copy alone.
//
// The Store layers policy over the backend: a bounded in-memory LRU
// index built at Open from the backend's listing alone (recency
// persisted via backend timestamps), corruption-tolerant reads (a
// record that fails to parse, carries a future schema version, is torn,
// fails its CRC or does not match its content address is dropped and
// reported on its first read, never fatal) and a write-behind queue
// with Flush/Close drain. The LRU bound (Options.MaxEntries) is the
// store's one retention policy.
//
// All methods are safe for concurrent use.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tapas/internal/export"
	"tapas/internal/wbq"
)

// Key identifies one search outcome, mirroring the Engine's cache key:
// every field that can change the resulting plan participates.
type Key struct {
	// Kind distinguishes the producing pipeline ("search").
	Kind string `json:"kind"`
	// Graph is the structural graph fingerprint (graph.Fingerprint).
	Graph string `json:"graph"`
	// GPUs is the total device count searched.
	GPUs int `json:"gpus"`
	// Cluster is the cluster signature (cluster.Signature).
	Cluster string `json:"cluster"`
	// Options is the canonical option-set signature.
	Options string `json:"options"`
}

// ID returns the content address of the key: a hex SHA-256 over its
// length-prefixed fields. It is the record's backend id (and the
// filesystem backend's filename, plus ".json").
func (k Key) ID() string {
	h := sha256.New()
	var buf [8]byte
	field := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	field(k.Kind)
	field(k.Graph)
	binary.LittleEndian.PutUint64(buf[:], uint64(k.GPUs))
	h.Write(buf[:])
	field(k.Cluster)
	field(k.Options)
	return hex.EncodeToString(h.Sum(nil))
}

// Timing is the cold search-time breakdown persisted with a plan, so a
// store hit can report the original cost of producing it (mirroring the
// cache-hit contract: timing describes the cold computation); it is the
// Timing block of tapas.Result. Durations encode as int64 nanoseconds;
// MineLevels counts the Apriori growth iterations mining executed.
type Timing struct {
	GroupTime       time.Duration `json:"group_ns"`
	MineTime        time.Duration `json:"mine_ns"`
	SearchTime      time.Duration `json:"search_ns"`
	EnumTime        time.Duration `json:"enum_ns"`
	AssembleTime    time.Duration `json:"assemble_ns"`
	ReconstructTime time.Duration `json:"reconstruct_ns,omitempty"`
	SimulateTime    time.Duration `json:"simulate_ns,omitempty"`
	TotalTime       time.Duration `json:"total_ns"`
	Classes         int           `json:"classes"`
	Examined        int           `json:"examined"`
	Pruned          int           `json:"pruned"`
	UniqueGraphs    int           `json:"unique_graphs"`
	MineLevels      int           `json:"mine_levels"`
}

// Options configure Open. One of Dir and Backend is required.
type Options struct {
	// Dir selects the filesystem backend at this directory (created if
	// missing). Ignored when Backend is set.
	Dir string
	// Backend overrides the byte-level persistence. One that exposes
	// Local() (store/replicate) makes the store replicated: an index
	// miss reads through it, so a record a peer persisted after this
	// Open is still a hit. Any other is exclusive: its index is
	// authoritative.
	Backend Backend
	// Shared is accepted on a replicated backend and ignored: the
	// backend decides the mode. Open rejects it on any other backend,
	// whose records this store would evict.
	//
	// Deprecated: a replicated backend is recognised by its Local().
	Shared bool
	// MaxEntries bounds the indexed record count (LRU eviction past
	// it). 0 selects DefaultMaxEntries.
	MaxEntries int
	// OnCorrupt, when set, observes every record dropped as unreadable
	// on its first Get, and every failed write-behind persist. The store
	// never fails on either; this is the report.
	OnCorrupt func(path string, err error)
}

// DefaultMaxEntries is the index bound when Options.MaxEntries is zero.
const DefaultMaxEntries = 4096

// queueSize bounds the write-behind queue of PutAsync; writes beyond it
// are dropped (and counted) rather than blocking a search.
const queueSize = 256

// Stats is a point-in-time snapshot of store traffic, for health and
// metrics endpoints. Corrupt counts records dropped on their first read
// as unreadable, and records dropped as no longer rehydratable.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	Corrupt   uint64 `json:"corrupt"`
	Dropped   uint64 `json:"dropped"` // async writes dropped (queue full or store closed)
	// WriteErrors counts write-behind persists that failed at the
	// backend (disk full, permissions); the search they came from
	// already answered, so they are reported, not fatal.
	WriteErrors uint64 `json:"write_errors"`
	// ReadErrors counts backend reads that failed for a reason other
	// than the record being absent — a transient failure (I/O,
	// permissions), answered as a miss without dropping the record. A
	// replicated backend answers a peer's failure as a miss instead.
	ReadErrors uint64 `json:"read_errors"`
	Entries    int    `json:"entries"`
	Capacity   int    `json:"capacity"`
}

// entry is one indexed record.
type entry struct {
	id  string
	key Key
}

// writeTask is one queued write-behind persist.
type writeTask struct {
	key Key
	rec *Record
}

// Store is a bounded, backend-backed plan store. Construct with Open,
// retire with Close (which drains pending write-behind persists).
type Store struct {
	backend    Backend
	own        Backend // the backend this process owns: eviction, drop and the peer protocol act on it
	replicated bool    // an index miss reads through backend
	max        int
	onCorrupt  func(string, error)

	mu    sync.Mutex
	index map[string]*list.Element
	ll    *list.List // front = most recently used
	stats Stats

	writes *wbq.Queue[writeTask]
}

// Open loads (or creates) the store over opts.Backend (or the filesystem
// backend at opts.Dir). Open reads no record: an unreadable one is
// dropped and reported through opts.OnCorrupt by its first Get. Open
// only fails when the backend itself cannot be created or listed, or
// when opts.Shared is set on a backend that is not replicated.
func Open(opts Options) (*Store, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	l, replicated := opts.Backend.(localer)
	if opts.Shared && !replicated {
		return nil, errors.New("store: Options.Shared needs a replicated backend (one with Local())")
	}
	backend := opts.Backend
	if backend == nil {
		fs, err := NewFS(opts.Dir)
		if err != nil {
			return nil, err
		}
		backend = fs
	}
	s := &Store{
		backend:    backend,
		own:        backend,
		replicated: replicated,
		max:        opts.MaxEntries,
		onCorrupt:  opts.OnCorrupt,
		index:      make(map[string]*list.Element),
		ll:         list.New(),
	}
	if replicated {
		s.own = l.Local()
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.writes = wbq.New(queueSize, s.persist)
	return s, nil
}

// load indexes the backend's listing, oldest first so the LRU order
// approximates the pre-restart recency. No record is read: Open costs
// one List however large the corpus, and each record is validated on
// its first Get, where one that does not decode, carries a future
// schema, has no plan or does not match its content address is dropped
// and reported.
func (s *Store) load() error {
	ents, err := s.backend.List()
	if err != nil {
		return err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].ModTime.Before(ents[j].ModTime) })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ei := range ents {
		s.index[ei.ID] = s.ll.PushFront(&entry{id: ei.ID})
	}
	s.evictLocked()
	return nil
}

// describe names a record for corruption reports: the file path for the
// filesystem backend, the bare id otherwise.
func (s *Store) describe(id string) string {
	if p, ok := s.backend.(interface{ Path(string) string }); ok {
		return p.Path(id)
	}
	return id
}

// reportCorrupt counts and (when configured) reports one unusable
// record.
func (s *Store) reportCorrupt(path string, err error) {
	s.mu.Lock()
	s.stats.Corrupt++
	s.mu.Unlock()
	if s.onCorrupt != nil {
		s.onCorrupt(path, err)
	}
}

// Lookup looks up the record stored under k, as a store hit serves it:
// a version 2 record comes back with its header fields and Doc, its
// document not decoded (Plan is nil); a version 1 record with Plan.
// On a replicated corpus an index miss still consults the backend, so
// a record persisted by a peer replica after this Open is a hit (and is
// indexed from then on); an exclusive store answers misses from its
// authoritative index alone. Lookup is where records are validated: one
// that does not decode, carries a future schema, is torn, fails its
// CRC, has no plan or holds another key is dropped (counted as corrupt)
// and reported as a miss; a transient backend failure is a miss that
// keeps the record. A hit refreshes the record's recency, in memory and
// at the backend, so the LRU order survives restarts.
func (s *Store) Lookup(k Key) (*Record, bool) {
	return s.lookup(k, false)
}

// Get is Lookup with the plan document decoded: the record it returns
// carries Plan beside Doc, so writing it back with Put or PutAsync
// stores Doc as it is. A caller that changes Plan must clear Doc.
func (s *Store) Get(k Key) (*Record, bool) {
	return s.lookup(k, true)
}

// lookup serves Lookup and Get; withPlan decodes a version 2 record's
// document into Plan.
func (s *Store) lookup(k Key, withPlan bool) (*Record, bool) {
	id := k.ID()
	s.mu.Lock()
	el, indexed := s.index[id]
	if indexed {
		s.ll.MoveToFront(el)
	}
	s.mu.Unlock()
	if !indexed && !s.replicated {
		// An exclusive corpus's index is authoritative (every record
		// was indexed at Open, Put or eviction), so the miss costs no
		// backend read; only replicated corpora read through to pick
		// up peers' writes.
		s.miss()
		return nil, false
	}

	data, err := s.backend.Get(id)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			if indexed {
				s.dropIndex(id) // the backend lost it behind the index's back
			}
		} else {
			s.mu.Lock()
			s.stats.ReadErrors++
			s.mu.Unlock()
			if s.onCorrupt != nil {
				s.onCorrupt(s.describe(id), err)
			}
		}
		s.miss()
		return nil, false
	}
	rec, err := decodeRecord(id, data)
	if err == nil && rec.Key != k {
		// A hash collision, or a tampered record renamed into place.
		err = fmt.Errorf("store: record key does not match lookup key")
	}
	if err == nil && withPlan && rec.Plan == nil {
		var p export.StrategyJSON
		if err = json.Unmarshal(rec.Doc, &p); err == nil {
			rec.Plan = &p
		}
	}
	if err != nil {
		s.drop(id)
		s.reportCorrupt(s.describe(id), err)
		s.miss()
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.index[id]; ok {
		el.Value.(*entry).key = k // listed at Open, known from now on
	} else {
		s.index[id] = s.ll.PushFront(&entry{id: id, key: k})
		s.evictLocked()
	}
	s.stats.Hits++
	s.mu.Unlock()
	s.touch(id)
	return rec, true
}

// touch refreshes a hit record's persisted recency where the backend
// tracks one.
func (s *Store) touch(id string) {
	if t, ok := s.backend.(Toucher); ok {
		t.Touch(id)
	}
}

// miss counts one lookup miss.
func (s *Store) miss() {
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
}

// Put persists rec under k as a version 2 record (see Encode),
// synchronously and atomically at the backend. The record's Key and
// SchemaVersion are set by the store; CreatedUnixMS is stamped when
// zero.
func (s *Store) Put(k Key, rec *Record) error {
	data, err := Encode(k, rec)
	if err != nil {
		return err
	}
	id := k.ID()
	if err := s.backend.Put(id, data); err != nil {
		return err
	}
	s.mu.Lock()
	if el, ok := s.index[id]; ok {
		s.ll.MoveToFront(el)
	} else {
		s.index[id] = s.ll.PushFront(&entry{id: id, key: k})
	}
	s.stats.Puts++
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// PutAsync queues a write-behind persist and returns immediately. When
// the queue is full or the store is closed the write is dropped (and
// counted in Stats.Dropped) rather than stalling the caller — the store
// is an accelerator, never a bottleneck. Use Flush to wait for queued
// writes.
func (s *Store) PutAsync(k Key, rec *Record) {
	if !s.writes.TryPut(writeTask{key: k, rec: rec}) {
		s.mu.Lock()
		s.stats.Dropped++
		s.mu.Unlock()
	}
}

// persist applies one queued write. It returns — report made, error
// counted — before Flush can.
func (s *Store) persist(t writeTask) {
	err := s.Put(t.key, t.rec)
	if err == nil {
		return
	}
	if s.onCorrupt != nil {
		s.onCorrupt(s.describe(t.key.ID()),
			fmt.Errorf("store: write-behind persist failed: %w", err))
	}
	// A failed persist (disk full, permissions) is a write error,
	// not corruption: nothing bad was published.
	s.mu.Lock()
	s.stats.WriteErrors++
	s.mu.Unlock()
}

// Flush blocks until every write queued by PutAsync has been persisted.
func (s *Store) Flush() { s.writes.Flush() }

// Delete removes the record stored under k (e.g. one that no longer
// rehydrates against the current build), counting it as corrupt.
func (s *Store) Delete(k Key) {
	id := k.ID()
	if s.drop(id) {
		s.mu.Lock()
		s.stats.Corrupt++
		s.mu.Unlock()
	}
}

// dropIndex removes one entry from the index only, leaving the backend
// untouched. Reports whether it was indexed.
func (s *Store) dropIndex(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[id]
	if ok {
		s.ll.Remove(el)
		delete(s.index, id)
	}
	return ok
}

// drop removes one record from the index and this process's own copy
// from the owned backend; a peer's copy is the peer's to drop. Reports
// whether anything existed to remove.
func (s *Store) drop(id string) bool {
	existed := s.dropIndex(id)
	if !existed {
		if _, err := s.own.Stat(id); err == nil {
			existed = true
		}
	}
	_ = s.own.Delete(id)
	return existed
}

// evictLocked trims least-recently-used index entries beyond the bound
// and deletes this process's own copy of each: the record itself on an
// exclusive corpus, the local replica's copy on a replicated one (its
// peers bound their own disks, so no delete crosses the wire). Callers
// must hold s.mu.
func (s *Store) evictLocked() {
	for s.ll.Len() > s.max {
		oldest := s.ll.Back()
		e := oldest.Value.(*entry)
		s.ll.Remove(oldest)
		delete(s.index, e.id)
		_ = s.own.Delete(e.id)
		s.stats.Evictions++
	}
}

// Stats snapshots store traffic and size.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.ll.Len()
	st.Capacity = s.max
	return st
}

// Keys lists the keys of every indexed record, most recently used
// first — for inspection and administration. Open indexes the backend's
// listing without reading records, and a store learns a record's key
// only when it is written or first read, so a record not yet read
// since Open carries a zero key (on any corpus).
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// Len reports the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Close drains the write-behind queue and stops its writer. Further
// PutAsync calls are dropped (counted); Get/Put keep working — Close
// only retires the async machinery. Idempotent.
func (s *Store) Close() error {
	s.writes.Close()
	return nil
}
