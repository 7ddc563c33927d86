package store

import (
	"errors"
	"time"
)

// Backend is the byte-level persistence behind a Store: a flat namespace
// of immutable-once-published blobs addressed by the record's content
// hash (Key.ID(), 64 hex characters). The Store layers everything else —
// the LRU index, decode/validation, corruption policy and write-behind —
// on top, so a backend only moves bytes.
//
// Two implementations ship: the filesystem backend (NewFS, one JSON file
// per record, atomic temp+rename publishes) and store/replicate, which
// wraps a local one and replicates it to peer daemons through
// store/remotebackend. That peer client has no Delete, so it is not a
// Backend and no store can remove another daemon's records.
//
// Contract (enforced by store/backendtest.Run):
//
//   - Get returns the exact bytes of the last successful Put, or an
//     error wrapping ErrNotFound. Get itself must not refresh recency:
//     the Store distinguishes genuine hits (which it marks through the
//     optional Toucher interface) from reads that are not hits (a record
//     dropped as corrupt must not be rejuvenated).
//   - Put publishes atomically: a concurrent reader sees the old bytes
//     or the new bytes, never a mixture, and concurrent Puts of the same
//     id leave one of the payloads intact.
//   - Delete is idempotent; deleting an absent id is not an error. It
//     removes the copy this backend owns: a replicating composite
//     (store/replicate) removes its local copy only, and serves the id
//     from a peer's copy until every replica has dropped its own.
//   - Stat reports an id's size and last-modified time without reading
//     the payload, or an error wrapping ErrNotFound.
//   - List enumerates every stored id. Order is unspecified.
//
// A backend may additionally validate payloads on Put (a peer daemon
// behind store/remotebackend does) and reject bad ones with
// ErrInvalidRecord.
//
// Implementations must be safe for concurrent use.
type Backend interface {
	Get(id string) ([]byte, error)
	Put(id string, data []byte) error
	Delete(id string) error
	List() ([]EntryInfo, error)
	Stat(id string) (EntryInfo, error)
}

// Toucher is the optional recency interface: backends that persist a
// last-used timestamp (the filesystem backend's mtime) implement it,
// and the Store calls it on genuine hits so LRU order survives
// restarts. store/replicate touches its local copy only; a peer daemon
// touches its own copy when a replica reads it.
type Toucher interface {
	Touch(id string)
}

// localer is a replicating backend that exposes the backend this
// process owns (store/replicate). A Store over one is replicated.
type localer interface{ Local() Backend }

// ErrNotFound reports an id with no stored record. Backends wrap it so
// callers can errors.Is across implementations.
var ErrNotFound = errors.New("store: record not found")

// ErrInvalidRecord reports a payload rejected by validation: not a
// record, a future schema version, a torn record or one whose document
// fails its CRC, no plan, or a key that does not hash to the id it was
// stored under.
var ErrInvalidRecord = errors.New("store: invalid record")

// EntryInfo describes one stored blob without its payload.
type EntryInfo struct {
	// ID is the record's content address (Key.ID()).
	ID string `json:"id"`
	// Size is the payload length in bytes.
	Size int64 `json:"size"`
	// ModTime is the last write or recency refresh. The Store's LRU
	// order at Open derives from it.
	ModTime time.Time `json:"-"`
}

// validID reports whether id has the shape of a content address — 64
// lowercase hex characters. Backends use it to reject path-traversal
// shaped ids before touching the filesystem or building URLs.
func validID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
