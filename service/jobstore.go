package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"tapas/internal/wbq"
	"tapas/store"
)

// JobRecordSchemaVersion names the wire schema of durable job records.
// Additive changes (new optional fields) keep the version; anything that
// would break an existing reader bumps it. Records with a newer version
// than the running binary are skipped at load (reported, never deleted)
// so a rolling downgrade cannot destroy work it merely fails to parse.
const JobRecordSchemaVersion = 1

// JobRecord is the durable form of one async job: the validated request
// needed to re-execute the search after a crash, plus the job's status.
// It is written through the same store.Backend machinery as plan
// records, in a separate namespace directory, so every backend —
// filesystem, shared filesystem, remote peer — makes jobs durable for
// free.
type JobRecord struct {
	SchemaVersion int `json:"schema_version"`
	// Request is the original, already-validated submission; adoption
	// re-resolves it against the current binary's model registry.
	Request SearchRequest `json:"request"`
	// JobStatus is the job as GET /v1/jobs/{id} reports it, without
	// Progress; its fields encode at the record's top level. ID names
	// the backend record (see JobRecordID), Attempts is the evidence of
	// a crash between start and terminal state, and Result lets a
	// restarted daemon keep answering polls for its predecessor's work.
	// Records written before the status was embedded lack gpus; it is
	// always Request.GPUs.
	JobStatus
}

// JobRecordID maps a job ID onto the backend's content-address shape (64
// lowercase hex characters). Job IDs are not content hashes — the same
// job record is rewritten on every state transition — so the record id
// is a namespace-tagged digest of the job ID: stable across rewrites,
// valid for every backend, and never colliding with a plan record (plan
// ids hash a different domain).
func JobRecordID(jobID string) string {
	h := sha256.Sum256([]byte("tapas-job\x00" + jobID))
	return hex.EncodeToString(h[:])
}

// JobStoreStats counts the durable job machinery's traffic, served under
// /v1/healthz and /metrics.
type JobStoreStats struct {
	// Records is the job records found at open (before adoption).
	Records int `json:"records"`
	// Persists and Deletes count completed backend writes.
	Persists int64 `json:"persists"`
	Deletes  int64 `json:"deletes"`
	// Dropped counts writes discarded because the store was closed.
	Dropped int64 `json:"dropped"`
	// WriteErrors counts failed backend writes (disk full, peer down).
	WriteErrors int64 `json:"write_errors"`
	// Corrupt counts records skipped at load (undecodable, wrong id,
	// future schema).
	Corrupt int64 `json:"corrupt"`
}

// jobOp is one queued write-behind operation: a record rewrite, or a
// deletion when data is nil.
type jobOp struct {
	id   string
	data []byte
}

// jobStore persists job records through a store.Backend behind a
// write-behind queue. Unlike the plan store's PutAsync (which drops on a
// full queue — plans are an accelerator), job transitions are the system
// of record: enqueue blocks briefly when the queue is full rather than
// dropping, and the queue's single FIFO applier keeps each job's
// transitions in submission order so a crash can only lose a suffix,
// never reorder states on disk.
type jobStore struct {
	backend   store.Backend
	onCorrupt func(id string, err error)
	writes    *wbq.Queue[jobOp]

	mu    sync.Mutex
	stats JobStoreStats
}

// jobStoreQueueSize bounds the write-behind queue. Transitions are
// low-rate (a handful per job lifetime), so the bound exists only to cap
// memory if the backend stalls; past it, enqueue blocks.
const jobStoreQueueSize = 256

func newJobStore(backend store.Backend, onCorrupt func(id string, err error)) *jobStore {
	js := &jobStore{backend: backend, onCorrupt: onCorrupt}
	js.writes = wbq.New(jobStoreQueueSize, js.apply)
	return js
}

// load reads every job record in the namespace, skipping (and counting)
// anything undecodable, stored under the wrong id, or written by a newer
// schema. Records are returned oldest-first so adoption re-enqueues in
// the original submission order.
func (js *jobStore) load() ([]*JobRecord, error) {
	ents, err := js.backend.List()
	if err != nil {
		return nil, fmt.Errorf("service: list job records: %w", err)
	}
	var recs []*JobRecord
	for _, ent := range ents {
		data, err := js.backend.Get(ent.ID)
		if err != nil {
			js.corrupt(ent.ID, err)
			continue
		}
		var rec JobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			js.corrupt(ent.ID, fmt.Errorf("decode job record: %w", err))
			continue
		}
		if rec.SchemaVersion > JobRecordSchemaVersion {
			js.corrupt(ent.ID, fmt.Errorf("job record schema %d is newer than %d", rec.SchemaVersion, JobRecordSchemaVersion))
			continue
		}
		if rec.ID == "" || JobRecordID(rec.ID) != ent.ID {
			// A plan record or stray blob sharing the directory would
			// fail this check — the namespace tag in JobRecordID is what
			// keeps the two record kinds from masquerading as each other.
			js.corrupt(ent.ID, fmt.Errorf("job record id %q does not hash to %s", rec.ID, ent.ID))
			continue
		}
		recs = append(recs, &rec)
	}
	sort.Slice(recs, func(i, k int) bool {
		if recs[i].CreatedUnixMS != recs[k].CreatedUnixMS {
			return recs[i].CreatedUnixMS < recs[k].CreatedUnixMS
		}
		return recs[i].ID < recs[k].ID
	})
	js.mu.Lock()
	js.stats.Records = len(recs)
	js.mu.Unlock()
	return recs, nil
}

func (js *jobStore) corrupt(id string, err error) {
	js.mu.Lock()
	js.stats.Corrupt++
	js.mu.Unlock()
	if js.onCorrupt != nil {
		js.onCorrupt(id, err)
	}
}

// put persists one record synchronously — used during adoption, before
// the workers start, so the on-disk state is already "adopted" when the
// first re-run begins.
func (js *jobStore) put(rec *JobRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: encode job record: %w", err)
	}
	return js.write(jobOp{id: JobRecordID(rec.ID), data: data})
}

// putAsync queues a record rewrite on the write-behind path.
func (js *jobStore) putAsync(rec *JobRecord) {
	data, err := json.Marshal(rec)
	if err != nil {
		// A record that cannot marshal is a programming error; count it
		// rather than crash the transition that produced it.
		js.mu.Lock()
		js.stats.WriteErrors++
		js.mu.Unlock()
		return
	}
	js.enqueue(jobOp{id: JobRecordID(rec.ID), data: data})
}

// deleteAsync queues a record deletion (FIFO with earlier rewrites, so a
// delete can never be overtaken by a stale put of the same job).
func (js *jobStore) deleteAsync(jobID string) {
	js.enqueue(jobOp{id: JobRecordID(jobID)})
}

// enqueue blocks while the queue is full, never drops: these writes are
// the system of record. Only a closed store refuses (counted).
func (js *jobStore) enqueue(op jobOp) {
	if !js.writes.Put(op) {
		js.mu.Lock()
		js.stats.Dropped++
		js.mu.Unlock()
	}
}

// apply performs one queued write; it counts and reports the outcome
// before returning, so Flush is a barrier for both.
func (js *jobStore) apply(op jobOp) {
	if err := js.write(op); err != nil && js.onCorrupt != nil {
		js.onCorrupt(op.id, fmt.Errorf("service: job record write failed: %w", err))
	}
}

// write performs one operation against the backend and counts it.
func (js *jobStore) write(op jobOp) error {
	var err error
	if op.data == nil {
		err = js.backend.Delete(op.id)
	} else {
		err = js.backend.Put(op.id, op.data)
	}
	js.mu.Lock()
	switch {
	case err != nil:
		js.stats.WriteErrors++
	case op.data == nil:
		js.stats.Deletes++
	default:
		js.stats.Persists++
	}
	js.mu.Unlock()
	return err
}

// Close drains the queue and retires the writer. Idempotent; later
// writes are dropped (counted).
func (js *jobStore) Close() { js.writes.Close() }

// Stats snapshots the counters.
func (js *jobStore) Stats() JobStoreStats {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.stats
}
