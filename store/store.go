// Package store persists search plans across process restarts and
// shares them across replicas: a content-addressed store of PlanJSON
// records keyed by the same identity the Engine's in-memory result cache
// uses — structural graph fingerprint × cluster signature × option set.
// A tapas-serve daemon opened over a warm store answers repeat traffic
// without re-running the search pipeline (the plan is rehydrated,
// re-priced and re-simulated, all orders of magnitude cheaper than a
// cold search).
//
// Bytes live behind the pluggable Backend interface: the filesystem
// backend (one JSON file per record, atomic temp+rename writes) is the
// default, store/remotebackend reads and writes a peer daemon's corpus
// over HTTP, and store/replicate combines the two so each replica owns
// a local corpus, fans its writes out to its peers and reads through
// them on a miss — any cold search by one replica warms all of them.
//
// The Store layers policy over the backend: a bounded in-memory LRU
// index built at Open from the backend's listing alone (recency
// persisted via backend timestamps), corruption-tolerant reads (a
// record that fails to parse, carries a future schema version, or does
// not match its content address is dropped and reported on its first
// read, never fatal) and a write-behind queue with Flush/Close drain.
// The LRU bound (Options.MaxEntries) is the store's one retention
// policy.
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

// RecordSchemaVersion is the current on-disk record envelope schema.
// Additive changes keep the version; breaking changes bump it. Get
// drops records newer than this (reported as corrupt, not fatal); the
// embedded plan document carries its own export.SchemaVersion.
const RecordSchemaVersion = 1

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

// Record is one persisted search outcome: the versioned plan document
// plus enough metadata to serve a repeat request without re-searching.
type Record struct {
	SchemaVersion int    `json:"schema_version"`
	Key           Key    `json:"key"`
	Model         string `json:"model"`
	GPUs          int    `json:"gpus"`
	// Plan is the full per-node assignment, rehydratable against any
	// structurally identical graph (export.StrategyJSON, the same
	// document served as service.PlanJSON).
	Plan          *export.StrategyJSON `json:"plan"`
	Timing        Timing               `json:"timing"`
	CreatedUnixMS int64                `json:"created_unix_ms"`
}

// Options configure Open. One of Dir and Backend is required.
type Options struct {
	// Dir selects the filesystem backend at this directory (created if
	// missing). Ignored when Backend is set.
	Dir string
	// Backend overrides the byte-level persistence — e.g. a
	// remotebackend.Backend pointing at a peer daemon's /v1/store
	// endpoints.
	Backend Backend
	// Shared marks the backend's corpus as shared with other replicas
	// (a remote backend, or a filesystem directory on shared storage).
	// Every Store indexes the backend's List at Open without reading a
	// record; a shared one in addition serves index misses by consulting
	// the backend (a record a peer persisted after this Open is still a
	// hit), tolerates an unreachable corpus at Open (it starts empty and
	// fills lazily), and evicts only its local index entries — never the
	// shared bytes, whose bound belongs to the corpus owner.
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
	// backend (disk full, peer unreachable); the search they came from
	// already answered, so they are reported, not fatal.
	WriteErrors uint64 `json:"write_errors"`
	// ReadErrors counts backend reads that failed for a reason other
	// than the record being absent — a transient failure (network blip,
	// permissions), answered as a miss without dropping the record.
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
	backend   Backend
	shared    bool
	max       int
	onCorrupt func(string, error)

	mu    sync.Mutex
	index map[string]*list.Element
	ll    *list.List // front = most recently used
	stats Stats

	writes *wbq.Queue[writeTask]
}

// Open loads (or creates) the store over opts.Backend (or the filesystem
// backend at opts.Dir). Open reads no record: an unreadable one is
// dropped and reported through opts.OnCorrupt by its first Get. Open
// only fails when the backend itself cannot be created or (for
// exclusive corpora) listed.
func Open(opts Options) (*Store, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultMaxEntries
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
		backend:   backend,
		shared:    opts.Shared,
		max:       opts.MaxEntries,
		onCorrupt: opts.OnCorrupt,
		index:     make(map[string]*list.Element),
		ll:        list.New(),
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
		if s.shared {
			// The corpus owner may simply not be up yet; serve cold and
			// let index misses find it once it is.
			s.mu.Lock()
			s.stats.ReadErrors++
			s.mu.Unlock()
			if s.onCorrupt != nil {
				s.onCorrupt("list", err)
			}
			return nil
		}
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

// decodeRecord decodes one record payload, enforcing the envelope
// schema. name is the record's display identity for error messages.
func decodeRecord(name string, data []byte) (*Record, error) {
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("store: decode %s: %w", name, err)
	}
	if rec.SchemaVersion > RecordSchemaVersion {
		return nil, fmt.Errorf("store: record schema_version %d is newer than supported version %d",
			rec.SchemaVersion, RecordSchemaVersion)
	}
	if rec.Plan == nil {
		return nil, fmt.Errorf("store: record %s has no plan", name)
	}
	return &rec, nil
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

// Get looks up the record stored under k. On a shared corpus an index
// miss still consults the backend, so a record persisted by a peer
// replica after this Open is a hit (and is indexed from then on); an
// exclusive store answers misses from its authoritative index alone.
// Get is where records are validated: one that does not decode, carries
// a future schema, has no plan or holds another key is dropped (counted
// as corrupt) and reported as a miss; a transient backend failure is a
// miss that keeps the record. A hit refreshes the record's recency, in
// memory and at the backend, so the LRU order survives restarts.
func (s *Store) Get(k Key) (*Record, bool) {
	id := k.ID()
	s.mu.Lock()
	el, indexed := s.index[id]
	if indexed {
		s.ll.MoveToFront(el)
	}
	s.mu.Unlock()
	if !indexed && !s.shared {
		// An exclusive corpus's index is authoritative (every record
		// was indexed at Open, Put or eviction), so the miss costs no
		// backend read; only shared corpora fall through to pick up
		// peers' writes.
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
	if err != nil {
		s.drop(id)
		s.reportCorrupt(s.describe(id), err)
		s.miss()
		return nil, false
	}
	if rec.Key != k {
		// A hash collision, or a tampered record renamed into place.
		s.drop(id)
		s.reportCorrupt(s.describe(id), fmt.Errorf("store: record key does not match lookup key"))
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

// Put persists rec under k as compact JSON, synchronously and atomically
// at the backend (readers accept any JSON layout, so older indented
// records stay valid). The record's Key and SchemaVersion envelope
// fields are set by the store; CreatedUnixMS is stamped when zero.
func (s *Store) Put(k Key, rec *Record) error {
	cp := *rec
	cp.SchemaVersion = RecordSchemaVersion
	cp.Key = k
	if cp.CreatedUnixMS == 0 {
		cp.CreatedUnixMS = time.Now().UnixMilli()
	}
	if cp.Plan == nil {
		return fmt.Errorf("store: refusing to persist a record without a plan")
	}
	data, err := json.Marshal(&cp)
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
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
	// A failed persist (disk full, peer unreachable) is a write error,
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

// drop removes one record from the index and the backend. Reports
// whether anything existed to remove.
func (s *Store) drop(id string) bool {
	existed := s.dropIndex(id)
	if !existed {
		if _, err := s.backend.Stat(id); err == nil {
			existed = true
		}
	}
	_ = s.backend.Delete(id)
	return existed
}

// evictLocked trims least-recently-used index entries beyond the bound.
// On an exclusive corpus the backing record is deleted too; on a shared
// corpus only the local index entry goes (the corpus bound belongs to
// its owner), and a later lookup can still find the record through the
// backend. Callers must hold s.mu.
func (s *Store) evictLocked() {
	for s.ll.Len() > s.max {
		oldest := s.ll.Back()
		e := oldest.Value.(*entry)
		s.ll.Remove(oldest)
		delete(s.index, e.id)
		if !s.shared {
			_ = s.backend.Delete(e.id)
		}
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
