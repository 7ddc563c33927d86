// Package replicate implements a replicated plan corpus: a composite
// store.Backend that spreads every record over K underlying backends,
// so any surviving replica can serve every plan the fleet has searched
// — killing the daemon that originally wrote a record loses nothing.
//
// Two classic replication disciplines, scaled down to the store's
// content-addressed record model, do all of the converging:
//
//   - Write fanout, write-behind. A Put lands on the local backend
//     synchronously — the hot path's durability — and is then queued to
//     every peer on a per-peer outbound queue drained by its own
//     goroutine, so one slow or dead replica never blocks a search. A
//     full queue drops the op (counted) instead of stalling.
//
//   - Read-repair. A Get that misses locally falls through to the
//     healthy peers; a record found remotely is served AND re-Put into
//     the local backend, so the next read is local and a wiped replica
//     heals itself organically under read traffic.
//
// Both assume the symmetric topology: every replica lists every other
// as a peer, so a read on any replica can reach every holder. A record
// is the deterministic output of a search — two copies under one id
// carry the same plan — so a replica that missed a fan-out catches up
// the first time it reads the record. Nothing copies a record ahead of
// time to a replica that missed its fan-out and never reads it; losing
// it costs one re-search returning the same plan, and only after every
// replica holding it has died.
//
// Degraded operation is first-class: a peer whose call fails at the
// transport is marked down and skipped (counted) by writes, reads and
// listings. Only the background probe loop marks it healthy again — any
// answer, even a 404, proves it alive — after which the next write
// reaches it by fan-out again.
//
// Deletes do not replicate. A replica's local copies are its own cache:
// its store evicts them to bound its own disk, and drops one that fails
// validation on its own first read. Delete removes the local copy only,
// so no delete can be missed by a peer, and none can be undone: a record
// evicted here comes back by read-repair from a peer that still holds
// it, or by one deterministic re-search if none does.
//
// All methods are safe for concurrent use.
package replicate

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tapas/internal/trace"
	"tapas/internal/wbq"
	"tapas/store"
)

// queueSize bounds one peer's outbound write-behind queue. Ops beyond
// it are dropped and counted; the peer read-repairs the record later.
const queueSize = 128

// probeID is the record id used by health probes: a well-formed content
// address that no real record hashes to in practice. A peer answering
// "not found" for it has proven it is alive.
var probeID = strings.Repeat("0", 64)

// PeerBackend is what replication asks of a peer: read, write, stat
// and list. It has no Delete, because deletes do not replicate.
type PeerBackend interface {
	Get(id string) ([]byte, error)
	Put(id string, data []byte) error
	Stat(id string) (store.EntryInfo, error)
	List() ([]store.EntryInfo, error)
}

// Peer names one replication target.
type Peer struct {
	// Name identifies the peer in logs and stats (e.g. its base URL).
	Name string
	// Backend is the peer's byte store — typically a
	// remotebackend.Backend speaking another daemon's /v1/store
	// endpoints; tests and the benchmark replicate to plain filesystem
	// backends.
	Backend PeerBackend
}

// Options configure New. Local is required.
type Options struct {
	// Local is the backend this process owns — written synchronously,
	// read first, and the target of read-repair.
	Local store.Backend
	// Peers are the replication targets write fanout and read
	// fall-through operate on.
	Peers []Peer
	// ProbeInterval spaces background health probes of down peers
	// (default 3s). Negative disables probing, and then a peer marked
	// down stays down: reads, writes and listings all skip it, and only
	// the probe loop ever marks a peer healthy again.
	ProbeInterval time.Duration
	// Logf observes peer-health transitions and repair activity
	// (nil: silent).
	Logf func(format string, args ...any)
	// Trace, when set, records replication background work (write
	// fanout, read-repair) as standalone spans in the daemon's flight
	// recorder, subject to the recorder's sampling.
	Trace *trace.Recorder
}

// Stats is a point-in-time snapshot of replication traffic, served by
// the daemon's healthz under "replication" and by /metrics as the
// tapas_replicate_* families.
type Stats struct {
	// Peers and PeersHealthy describe the replica set as this process
	// sees it (the local backend excluded).
	Peers        int `json:"peers"`
	PeersHealthy int `json:"peers_healthy"`
	// FanoutWrites counts Puts successfully applied to peers by the
	// write-behind queues; FanoutErrors counts ones that failed at a
	// peer.
	FanoutWrites uint64 `json:"fanout_writes"`
	FanoutErrors uint64 `json:"fanout_errors"`
	// DeadPeerSkips counts operations (writes, read fall-throughs,
	// listings) that skipped a peer currently marked down.
	DeadPeerSkips uint64 `json:"dead_peer_skips"`
	// QueueDropped counts fanout ops dropped because a peer's outbound
	// queue was full or the backend was closed.
	QueueDropped uint64 `json:"queue_dropped"`
	// RepairHits counts Gets answered by a peer after a local miss —
	// each one re-Puts the record locally (read-repair).
	RepairHits uint64 `json:"repair_hits"`
	// PeerDetail lists per-peer health for operators.
	PeerDetail []PeerStatus `json:"peer_detail,omitempty"`
}

// PeerStatus is one peer's row in Stats.PeerDetail.
type PeerStatus struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
}

// repOp is one queued fanout Put.
type repOp struct {
	id   string
	data []byte
}

// peerState is one replication target, its health bit and its outbound
// queue.
type peerState struct {
	name    string
	b       PeerBackend
	healthy atomic.Bool
	queue   *wbq.Queue[repOp]
}

// Backend is the replicating composite. Construct with New, retire with
// Close (which drains the outbound queues).
type Backend struct {
	local store.Backend
	peers []*peerState
	logf  func(string, ...any)
	rec   *trace.Recorder // nil disables replication spans

	fanoutWrites  atomic.Uint64
	fanoutErrors  atomic.Uint64
	deadPeerSkips atomic.Uint64
	queueDropped  atomic.Uint64
	repairHits    atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // the probe loop
}

// New builds the replicating backend over opts.Local and opts.Peers and
// starts the per-peer queue writers and the health probe loop.
func New(opts Options) (*Backend, error) {
	if opts.Local == nil {
		return nil, fmt.Errorf("replicate: no local backend given")
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 3 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	b := &Backend{
		local: opts.Local,
		logf:  logf,
		rec:   opts.Trace,
		stop:  make(chan struct{}),
	}
	for i, p := range opts.Peers {
		if p.Backend == nil {
			return nil, fmt.Errorf("replicate: peer %d has no backend", i)
		}
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("peer-%d", i)
		}
		ps := &peerState{name: name, b: p.Backend}
		ps.healthy.Store(true) // optimistic until the first failure
		ps.queue = wbq.New(queueSize, func(op repOp) { b.apply(ps, op) })
		b.peers = append(b.peers, ps)
	}
	if opts.ProbeInterval > 0 && len(b.peers) > 0 {
		b.wg.Add(1)
		go b.probeLoop(opts.ProbeInterval)
	}
	return b, nil
}

// Local returns the backend this process owns. The Store's peer
// protocol (/v1/store) serves raw reads and writes through it — never
// through the composite — so one replica's fanout or fall-through can
// never cascade into another's and loop around the fleet.
func (b *Backend) Local() store.Backend { return b.local }

// Get serves id local-first. A local miss falls through to the healthy
// peers in order; a record found remotely is re-Put into the local
// backend (read-repair) so the next read is local. Down peers are
// skipped and counted.
func (b *Backend) Get(id string) ([]byte, error) {
	data, err := b.local.Get(id)
	if err == nil {
		return data, nil
	}
	t0 := time.Now()
	for _, p := range b.peers {
		if !p.healthy.Load() {
			b.deadPeerSkips.Add(1)
			continue
		}
		data, perr := p.b.Get(id)
		if perr == nil {
			b.repairHits.Add(1)
			if rerr := b.local.Put(id, data); rerr != nil {
				b.logf("replicate: read-repair of %s failed locally: %v", short(id), rerr)
			} else {
				b.logf("replicate: read-repaired %s from %s", short(id), p.name)
			}
			b.rec.RecordSpan("replicate.read_repair", t0, time.Since(t0), "",
				"id", short(id), "peer", p.name)
			return data, nil
		}
		if errors.Is(perr, store.ErrNotFound) {
			continue
		}
		b.markDown(p, perr)
	}
	return nil, err
}

// Put publishes data under id: synchronously at the local backend (its
// failure is the caller's failure), then write-behind to every peer.
// Down peers are skipped; they read-repair what they missed.
func (b *Backend) Put(id string, data []byte) error {
	if err := b.local.Put(id, data); err != nil {
		return err
	}
	for _, p := range b.peers {
		b.enqueue(p, repOp{id: id, data: data})
	}
	return nil
}

// Delete removes the local copy of id only: deletes do not replicate
// (see the package note), so each peer keeps its own copy until its own
// store evicts or drops it.
func (b *Backend) Delete(id string) error { return b.local.Delete(id) }

// Stat reports id local-first, falling through to healthy peers.
func (b *Backend) Stat(id string) (store.EntryInfo, error) {
	info, err := b.local.Stat(id)
	if err == nil {
		return info, nil
	}
	for _, p := range b.peers {
		if !p.healthy.Load() {
			b.deadPeerSkips.Add(1)
			continue
		}
		pinfo, perr := p.b.Stat(id)
		if perr == nil {
			return pinfo, nil
		}
		if errors.Is(perr, store.ErrNotFound) {
			continue
		}
		b.markDown(p, perr)
	}
	return store.EntryInfo{}, err
}

// List enumerates the union of the local corpus and every healthy
// peer's, keeping the newest timestamp per id — the fleet's merged view
// of the corpus, which is what a Store opened over this backend indexes.
func (b *Backend) List() ([]store.EntryInfo, error) {
	ents, err := b.local.List()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]store.EntryInfo, len(ents))
	for _, e := range ents {
		seen[e.ID] = e
	}
	for _, p := range b.peers {
		if !p.healthy.Load() {
			b.deadPeerSkips.Add(1)
			continue
		}
		pents, perr := p.b.List()
		if perr != nil {
			b.markDown(p, perr)
			continue
		}
		for _, e := range pents {
			if have, ok := seen[e.ID]; !ok || e.ModTime.After(have.ModTime) {
				seen[e.ID] = e
			}
		}
	}
	out := make([]store.EntryInfo, 0, len(seen))
	for _, e := range seen {
		out = append(out, e)
	}
	return out, nil
}

// Touch refreshes local recency when the local backend tracks it. Peers
// track their own recency (a peer daemon touches its copy on GET).
func (b *Backend) Touch(id string) {
	if t, ok := b.local.(store.Toucher); ok {
		t.Touch(id)
	}
}

// Stats snapshots replication traffic and peer health.
func (b *Backend) Stats() Stats {
	st := Stats{
		Peers:         len(b.peers),
		FanoutWrites:  b.fanoutWrites.Load(),
		FanoutErrors:  b.fanoutErrors.Load(),
		DeadPeerSkips: b.deadPeerSkips.Load(),
		QueueDropped:  b.queueDropped.Load(),
		RepairHits:    b.repairHits.Load(),
	}
	for _, p := range b.peers {
		up := p.healthy.Load()
		if up {
			st.PeersHealthy++
		}
		st.PeerDetail = append(st.PeerDetail, PeerStatus{Name: p.name, Healthy: up})
	}
	return st
}

// Flush blocks until every queued fanout op has been applied or
// skipped — the write-behind barrier tests and shutdown use.
func (b *Backend) Flush() {
	for _, p := range b.peers {
		p.queue.Flush()
	}
}

// Close stops the probe loop and drains the outbound
// queues. Further fanout is dropped (counted); Get/Put keep working
// against the local backend. Idempotent.
func (b *Backend) Close() error {
	b.stopOnce.Do(func() { close(b.stop) })
	for _, p := range b.peers {
		p.queue.Close()
	}
	b.wg.Wait()
	return nil
}

// ---------------------------------------------------------------------------
// Write fanout

// enqueue queues one op to a peer, skipping down peers and full or
// closed queues (both counted) rather than ever blocking the caller.
func (b *Backend) enqueue(p *peerState, op repOp) {
	if !p.healthy.Load() {
		b.deadPeerSkips.Add(1)
		return
	}
	if !p.queue.TryPut(op) {
		b.queueDropped.Add(1)
	}
}

// apply performs one queued op against a peer. A peer that died since
// the op was queued is skipped; a transport failure marks it down.
func (b *Backend) apply(p *peerState, op repOp) {
	if !p.healthy.Load() {
		b.deadPeerSkips.Add(1)
		return
	}
	t0 := time.Now()
	err := p.b.Put(op.id, op.data)
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	b.rec.RecordSpan("replicate.fanout", t0, time.Since(t0), errMsg,
		"op", "put", "id", short(op.id), "peer", p.name)
	if err != nil {
		b.fanoutErrors.Add(1)
		b.markDown(p, err)
		return
	}
	b.fanoutWrites.Add(1)
}

// markDown records a peer failure. Errors that prove the peer answered
// (not-found, validation rejection) keep it healthy.
func (b *Backend) markDown(p *peerState, err error) {
	if errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrInvalidRecord) {
		return
	}
	if p.healthy.Swap(false) {
		b.logf("replicate: peer %s down: %v", p.name, err)
	}
}

// ---------------------------------------------------------------------------
// Health probing

// probeLoop re-tests down peers — the only way a peer marked down
// rejoins the fanout, the read fall-through and the listings.
func (b *Backend) probeLoop(every time.Duration) {
	defer b.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
		}
		for _, p := range b.peers {
			if p.healthy.Load() {
				continue
			}
			// Any answer proves life: a 404 for the probe id is a
			// healthy peer with (correctly) no such record.
			_, err := p.b.Stat(probeID)
			if err == nil || errors.Is(err, store.ErrNotFound) {
				if !p.healthy.Swap(true) {
					b.logf("replicate: peer %s healthy again", p.name)
				}
			}
		}
	}
}

// short abbreviates a record id for logs.
func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
