package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// FS is the filesystem Backend: one JSON file per record under a single
// directory, named "<id>.json" so the filename is verifiable from the
// content. Writes are atomic (temp file + rename in the same directory),
// so a crash mid-write can never leave a half-record under a live name.
// Touch refreshes the file's mtime best-effort on every hit, which is
// how LRU recency survives restarts.
//
// A directory belongs to one Store: its index is authoritative and its
// eviction deletes files, so replicas share plans by replication
// (store/replicate), never by mounting one directory.
type FS struct {
	dir string
}

// NewFS opens (creating if missing) the backend directory.
func NewFS(dir string) (*FS, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: no directory given")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	return &FS{dir: dir}, nil
}

// Path returns the file a record id lives at; the Store uses it to name
// files in corruption reports.
func (f *FS) Path(id string) string { return filepath.Join(f.dir, id+".json") }

// Get reads the record published under id. It does not refresh
// recency — the Store calls Touch on genuine hits only, so a read that
// is not a hit (a record dropped as corrupt) never rejuvenates it.
func (f *FS) Get(id string) ([]byte, error) {
	if !validID(id) {
		return nil, fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	data, err := os.ReadFile(f.Path(id))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Touch refreshes a record's mtime, best-effort, persisting recency for
// the next Open's LRU order.
func (f *FS) Touch(id string) {
	if !validID(id) {
		return
	}
	now := time.Now()
	_ = os.Chtimes(f.Path(id), now, now)
}

// Put publishes data under id atomically.
func (f *FS) Put(id string, data []byte) error {
	if !validID(id) {
		return fmt.Errorf("%w: malformed id %q", ErrInvalidRecord, id)
	}
	tmp, err := os.CreateTemp(f.dir, id+"-*.tmp")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write record: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: close record: %w", err)
	}
	if err := os.Rename(tmp.Name(), f.Path(id)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: publish record: %w", err)
	}
	return nil
}

// Delete removes the record published under id; absent ids are not an
// error.
func (f *FS) Delete(id string) error {
	if !validID(id) {
		return nil
	}
	err := os.Remove(f.Path(id))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Stat reports one record's size and last-modified time.
func (f *FS) Stat(id string) (EntryInfo, error) {
	if !validID(id) {
		return EntryInfo{}, fmt.Errorf("%w: malformed id %q", ErrNotFound, id)
	}
	info, err := os.Stat(f.Path(id))
	if os.IsNotExist(err) {
		return EntryInfo{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return EntryInfo{}, err
	}
	return EntryInfo{ID: id, Size: info.Size(), ModTime: info.ModTime()}, nil
}

// tmpReapAge is how old a leftover temp file must be before List
// removes it. A temp file younger than this may belong to a concurrent
// Put that has not renamed yet — reaping it would break that write's
// publish — while one past it can only be the residue of an interrupted
// (crashed) write: no Put holds a temp open for a minute.
const tmpReapAge = time.Minute

// List enumerates every stored record. Leftover temp files from
// interrupted writes are removed once they are old enough that no
// in-flight Put can still own them (the rename never happened, so they
// were never published); stray non-record files are ignored.
func (f *FS) List() ([]EntryInfo, error) {
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", f.dir, err)
	}
	var out []EntryInfo
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			if info, err := de.Info(); err == nil && time.Since(info.ModTime()) > tmpReapAge {
				_ = os.Remove(filepath.Join(f.dir, name)) // interrupted atomic write
			}
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		info, err := de.Info()
		if err != nil {
			continue // racing deletion; the record is simply gone
		}
		out = append(out, EntryInfo{ID: id, Size: info.Size(), ModTime: info.ModTime()})
	}
	return out, nil
}
