// Package remotebackend is the replication peer client: it reads,
// writes, stats and lists a peer daemon's corpus over its /v1/store
// HTTP endpoints (store.Handler). store/replicate fans writes out and
// reads through it, so a cold search persisted by any replica is served
// warm by all of them. It is not a store.Backend — it has no Delete —
// so no Store can be opened over another daemon's corpus and remove
// its records.
package remotebackend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tapas/store"
)

// maxRecordBytes bounds one record payload read from the peer.
const maxRecordBytes = 32 << 20

// Backend reads and writes a peer daemon's record corpus; it satisfies
// replicate.PeerBackend. Construct with New; methods are safe for
// concurrent use.
type Backend struct {
	// BaseURL is the peer daemon's root, e.g. "http://replica-a:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 30 s timeout.
	HTTPClient *http.Client
}

// New builds a backend for the peer daemon at baseURL.
func New(baseURL string) *Backend {
	return &Backend{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
	}
}

func (b *Backend) url(id string) string { return b.BaseURL + "/v1/store/" + id }

func (b *Backend) client() *http.Client {
	if b.HTTPClient != nil {
		return b.HTTPClient
	}
	return http.DefaultClient
}

// peerError renders a non-2xx peer response, preferring the daemon's
// JSON error envelope.
func peerError(resp *http.Response) error {
	var eb struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&eb); err == nil && eb.Error != "" {
		msg = eb.Error
	}
	return fmt.Errorf("remotebackend: peer returned %d: %s", resp.StatusCode, msg)
}

// Get fetches the raw record published under id. A payload over
// maxRecordBytes is an error, never a truncated record: a replica would
// read-repair the cut bytes into its own corpus and drop them as
// corrupt there.
func (b *Backend) Get(id string) ([]byte, error) {
	resp, err := b.client().Get(b.url(id))
	if err != nil {
		return nil, fmt.Errorf("remotebackend: get %s: %w", id, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s", store.ErrNotFound, id)
	case resp.StatusCode/100 != 2:
		return nil, peerError(resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRecordBytes+1))
	if err != nil {
		return nil, fmt.Errorf("remotebackend: read %s: %w", id, err)
	}
	if len(data) > maxRecordBytes {
		return nil, fmt.Errorf("remotebackend: record %s exceeds %d bytes", id, maxRecordBytes)
	}
	return data, nil
}

// Put publishes data under id at the peer, which validates it (a
// rejected payload wraps store.ErrInvalidRecord).
func (b *Backend) Put(id string, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, b.url(id), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client().Do(req)
	if err != nil {
		return fmt.Errorf("remotebackend: put %s: %w", id, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusBadRequest:
		return fmt.Errorf("%w: %v", store.ErrInvalidRecord, peerError(resp))
	case resp.StatusCode/100 != 2:
		return peerError(resp)
	}
	return nil
}

// Stat reports one record's size and last-modified time without
// fetching its payload (an HTTP HEAD).
func (b *Backend) Stat(id string) (store.EntryInfo, error) {
	resp, err := b.client().Head(b.url(id))
	if err != nil {
		return store.EntryInfo{}, fmt.Errorf("remotebackend: stat %s: %w", id, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return store.EntryInfo{}, fmt.Errorf("%w: %s", store.ErrNotFound, id)
	case resp.StatusCode/100 != 2:
		return store.EntryInfo{}, peerError(resp)
	}
	info := store.EntryInfo{ID: id, Size: resp.ContentLength}
	if ms, err := strconv.ParseInt(resp.Header.Get(store.ModTimeHeader), 10, 64); err == nil {
		info.ModTime = time.UnixMilli(ms)
	}
	return info, nil
}

// List enumerates the peer's corpus.
func (b *Backend) List() ([]store.EntryInfo, error) {
	resp, err := b.client().Get(b.BaseURL + "/v1/store")
	if err != nil {
		return nil, fmt.Errorf("remotebackend: list: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, peerError(resp)
	}
	var body struct {
		Records []struct {
			ID        string `json:"id"`
			Size      int64  `json:"size"`
			ModUnixMS int64  `json:"mod_unix_ms"`
		} `json:"records"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRecordBytes)).Decode(&body); err != nil {
		return nil, fmt.Errorf("remotebackend: decode listing: %w", err)
	}
	out := make([]store.EntryInfo, 0, len(body.Records))
	for _, r := range body.Records {
		out = append(out, store.EntryInfo{ID: r.ID, Size: r.Size, ModTime: time.UnixMilli(r.ModUnixMS)})
	}
	return out, nil
}
