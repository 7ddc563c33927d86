package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The peer protocol: a daemon with a store mounts Handler under
// /v1/store, and its replication peers read and write its corpus
// through store/remotebackend. The wire unit is the raw encoded record
// — the same JSON document the filesystem backend keeps in one file —
// so a daemon's files and every replica agree byte for byte. The
// protocol serves the store's owned backend only, never a replicating
// composite: a peer asking this daemon for a record must get this
// daemon's copy, never a fall-through to a third replica, or reads and
// fanout writes would cascade around the fleet. It has no delete: no
// replica removes another's records.

// ModTimeHeader carries a record's last-modified time (Unix
// milliseconds) on GET/HEAD responses of the peer protocol.
const ModTimeHeader = "X-Tapas-Mod-Unix-Ms"

// maxRecordBytes bounds one record payload accepted over the peer
// protocol.
const maxRecordBytes = 32 << 20

// GetRaw returns the encoded record stored under id, refreshing its
// recency like Get. It serves the peer protocol; the payload is not
// re-validated here (Put/PutRaw validated it on the way in, and the
// reading replica validates on the way out).
func (s *Store) GetRaw(id string) ([]byte, error) {
	if !validID(id) {
		return nil, fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	s.mu.Lock()
	if el, ok := s.index[id]; ok {
		s.ll.MoveToFront(el)
	}
	s.mu.Unlock()
	data, err := s.own.Get(id)
	if err == nil {
		s.touch(id) // a peer's read is a hit: keep the record young
	}
	return data, err
}

// PutRaw validates data as a record whose key hashes to id and persists
// it, indexing it like Put — so a plan a peer replica searched is served
// by this store's own lookups from then on. Validation failures wrap
// ErrInvalidRecord.
func (s *Store) PutRaw(id string, data []byte) error {
	if !validID(id) {
		return fmt.Errorf("%w: malformed id %q", ErrInvalidRecord, id)
	}
	rec, err := decodeRecord(id, data)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidRecord, err)
	}
	if got := rec.Key.ID(); got != id {
		return fmt.Errorf("%w: key hashes to %s, stored as %s", ErrInvalidRecord, got[:12], id)
	}
	if err := s.own.Put(id, data); err != nil {
		return err
	}
	s.mu.Lock()
	if el, ok := s.index[id]; ok {
		s.ll.MoveToFront(el)
	} else {
		s.index[id] = s.ll.PushFront(&entry{id: id, key: rec.Key})
	}
	s.stats.Puts++
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// StatRaw reports one stored record's size and last-modified time.
func (s *Store) StatRaw(id string) (EntryInfo, error) {
	if !validID(id) {
		return EntryInfo{}, fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	return s.own.Stat(id)
}

// ListRaw enumerates every record the owned backend holds, indexed or
// not.
func (s *Store) ListRaw() ([]EntryInfo, error) {
	return s.own.List()
}

// wireEntry is the peer protocol's listing element.
type wireEntry struct {
	ID        string `json:"id"`
	Size      int64  `json:"size"`
	ModUnixMS int64  `json:"mod_unix_ms"`
}

// Handler serves the store's peer protocol — the HTTP surface
// store/remotebackend speaks, mounted by tapas-serve under /v1/store:
//
//	GET /v1/store       list record ids, sizes and timestamps
//	GET /v1/store/{id}  one raw record (HEAD for metadata only)
//	PUT /v1/store/{id}  publish a record (validated; 400 on garbage)
//
// Records a peer publishes are indexed immediately, so a plan one
// replica searched is served warm by this daemon's own searches too.
func Handler(s *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/store", func(w http.ResponseWriter, r *http.Request) {
		ents, err := s.ListRaw()
		if err != nil {
			writeStoreError(w, http.StatusInternalServerError, err)
			return
		}
		out := make([]wireEntry, 0, len(ents))
		for _, ei := range ents {
			out = append(out, wireEntry{ID: ei.ID, Size: ei.Size, ModUnixMS: ei.ModTime.UnixMilli()})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"records": out})
	})
	mux.HandleFunc("GET /v1/store/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		info, err := s.StatRaw(id)
		if err != nil {
			writeStoreError(w, storeErrorStatus(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(ModTimeHeader, strconv.FormatInt(info.ModTime.UnixMilli(), 10))
		if r.Method == http.MethodHead {
			w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
			w.WriteHeader(http.StatusOK)
			return
		}
		data, err := s.GetRaw(id)
		if err != nil {
			writeStoreError(w, storeErrorStatus(err), err)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})
	mux.HandleFunc("PUT /v1/store/{id}", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRecordBytes))
		if err != nil {
			writeStoreError(w, http.StatusBadRequest, fmt.Errorf("read record body: %w", err))
			return
		}
		if err := s.PutRaw(r.PathValue("id"), data); err != nil {
			writeStoreError(w, storeErrorStatus(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// storeErrorStatus maps store errors onto HTTP statuses for the peer
// protocol.
func storeErrorStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrInvalidRecord):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeStoreError emits the daemon's JSON error envelope.
func writeStoreError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
