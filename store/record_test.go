package store

import (
	"bytes"
	"container/list"
	"encoding/json"
	"hash/crc32"
	"slices"
	"sync"
	"testing"

	"tapas/internal/export"
)

// planRecord is a record whose plan has assignments, so its pattern
// table and names digest are not empty.
func planRecord(i int) *Record {
	rec := testRecord(i)
	rec.Plan.MemBytes = 1 << 20
	rec.Plan.Assignments = []export.AssignmentJSON{
		{Node: 0, Name: "GN0:Dense(fc1)", Kind: "Dense", Pattern: "column", In: "R", Out: "S(1)"},
		{Node: 1, Name: "GN1:Dense(fc2)", Kind: "Dense", Pattern: "row", In: "S(1)", Out: "R",
			Fwd: []export.EventJSON{{Kind: "AllReduce", Bytes: 4096, Workers: 8}}},
		{Node: 2, Name: "GN2:Elementwise(add)", Kind: "Elementwise", Pattern: "column", In: "R", Out: "R"},
	}
	return rec
}

// The seeds of FuzzStoreRecords: one record per layout a daemon reads.
func seedRecords(t testing.TB) (k Key, v2, v1Compact, v1Indented []byte) {
	k = testKey(1)
	rec := planRecord(1)
	v2, err := Encode(k, rec)
	if err != nil {
		t.Fatal(err)
	}
	v1 := *rec
	v1.SchemaVersion, v1.Key, v1.CreatedUnixMS = 1, k, 1
	if v1Compact, err = json.Marshal(&v1); err != nil {
		t.Fatal(err)
	}
	if v1Indented, err = json.MarshalIndent(&v1, "", "  "); err != nil {
		t.Fatal(err)
	}
	return k, v2, v1Compact, v1Indented
}

// TestRecordFraming: a version 2 record is a compact header with no raw
// newline, then the document byte for byte as rendered, under "plan";
// Lookup returns those bytes undecoded and Get decodes them; the whole
// record is one JSON value, so an older reader refuses it as a newer
// schema instead of misreading it.
func TestRecordFraming(t *testing.T) {
	k, data, _, _ := seedRecords(t)
	rec := planRecord(1)
	doc, err := json.MarshalIndent(rec.Plan, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	head, _, ok := bytes.Cut(data, []byte("\n"))
	if !ok || !bytes.HasSuffix(head, []byte(`,"plan":{`)) || !bytes.HasSuffix(data, append(doc[1:], '}')) {
		t.Fatalf("record is not header + document:\n%s", data)
	}
	if !json.Valid(data) {
		t.Fatal("record is not one JSON value")
	}

	s := open(t, t.TempDir())
	if err := s.Put(k, rec); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Lookup(k)
	if !ok {
		t.Fatal("stored record not found")
	}
	if got.Plan != nil || !bytes.Equal(got.Doc, doc) {
		t.Errorf("Lookup: plan %v, document %d bytes; want no plan and the %d rendered bytes", got.Plan != nil, len(got.Doc), len(doc))
	}
	if got.Workers != 8 || got.CostSeconds != 0.25 || got.MemBytesPerDevice != 1<<20 || got.Names != rec.Plan.NamesDigest() {
		t.Errorf("plan facts mangled: %+v", got)
	}
	if want := []string{"column", "row", "column"}; !slices.Equal(got.NodePatterns(), want) || len(got.PatternNames) != 2 {
		t.Errorf("patterns %v (table %v), want %v over a table of 2", got.NodePatterns(), got.PatternNames, want)
	}
	full, ok := s.Get(k)
	if !ok || !bytes.Equal(full.Doc, doc) || full.Plan == nil || len(full.Plan.Assignments) != 3 {
		t.Fatalf("Get: ok=%v, want the plan decoded beside the stored document", ok)
	}
	// A record read with Get and written again is the same record.
	if err := s.Put(k, full); err != nil {
		t.Fatal(err)
	}
	if again, _ := s.Lookup(k); !bytes.Equal(again.Doc, doc) {
		t.Error("a Get record written back changed its document")
	}
}

// TestTornRecordsRejected: every truncation of a version 2 record, and
// every single-bit flip in its document or closing brace, is refused.
// (A flip in the header is caught by the key check, or changes a plan
// fact a store hit compares before it serves the document.)
func TestTornRecordsRejected(t *testing.T) {
	_, data, _, _ := seedRecords(t)
	for n := 0; n < len(data); n++ {
		if _, err := decodeRecord("torn", data[:n]); err == nil {
			t.Fatalf("record cut to %d of %d bytes accepted", n, len(data))
		}
	}
	start := bytes.IndexByte(data, '\n') - 1
	for i := start; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(data)
			flipped[i] ^= 1 << bit
			if _, err := decodeRecord("flipped", flipped); err == nil {
				t.Fatalf("bit %d of byte %d (%q) flipped, record accepted", bit, i, data[i])
			}
		}
	}
}

// TestRecordLayoutsRead: version 1 records, compact and indented, come
// back with their plan and no document; a version 2 record re-encoded
// as plain indented JSON comes back with its document re-rendered and
// checked against its CRC, and one whose plan was changed is refused.
func TestRecordLayoutsRead(t *testing.T) {
	k, v2, v1c, v1i := seedRecords(t)
	for name, data := range map[string][]byte{"compact v1": v1c, "indented v1": v1i} {
		rec, err := decodeRecord(name, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.SchemaVersion != 1 || rec.Key != k || rec.Plan == nil || rec.Doc != nil {
			t.Errorf("%s decoded as %+v", name, rec)
		}
	}

	framed, err := decodeRecord("v2", v2)
	if err != nil {
		t.Fatal(err)
	}
	var plain Record
	if err := json.Unmarshal(v2, &plain); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(&plain, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeRecord("re-encoded", indented)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Doc, framed.Doc) || rec.Plan == nil {
		t.Error("re-encoded record's document differs from the framed one's")
	}
	plain.Plan.CostSeconds++
	tampered, _ := json.MarshalIndent(&plain, "", "  ")
	if _, err := decodeRecord("tampered", tampered); err == nil {
		t.Error("re-encoded record whose plan no longer matches its CRC accepted")
	}
}

// memBackend is an in-memory Backend for the fuzzer.
type memBackend struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *memBackend) Get(id string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.m[id]
	if !ok {
		return nil, ErrNotFound
	}
	return bytes.Clone(d), nil
}

func (b *memBackend) Put(id string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[id] = bytes.Clone(data)
	return nil
}

func (b *memBackend) Delete(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.m, id)
	return nil
}

func (b *memBackend) List() ([]EntryInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []EntryInfo
	for id, d := range b.m {
		out = append(out, EntryInfo{ID: id, Size: int64(len(d))})
	}
	return out, nil
}

func (b *memBackend) Stat(id string) (EntryInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.m[id]
	if !ok {
		return EntryInfo{}, ErrNotFound
	}
	return EntryInfo{ID: id, Size: int64(len(d))}, nil
}

// FuzzStoreRecords drives the record intake a daemon runs — a record
// read from its corpus (Lookup and Get) and one a peer PUTs (PutRaw) —
// with arbitrary bytes. It must never panic, and whatever it accepts is
// whole: the key it was asked for, and for version 2 a document of the
// stated length and CRC-32C (the framed bytes themselves, when framed),
// so no prefix of a valid record is ever accepted.
func FuzzStoreRecords(f *testing.F) {
	k, v2, v1c, v1i := seedRecords(f)
	f.Add(v2)
	f.Add(v1c)
	f.Add(v1i)
	id := k.ID()
	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh store per input, built without the write-behind
		// writer Open starts (neither path under test queues a write):
		// a goroutine would make the coverage the fuzzer steers by
		// depend on scheduling.
		b := &memBackend{m: map[string][]byte{}}
		s := &Store{backend: b, own: b, max: DefaultMaxEntries, index: map[string]*list.Element{}, ll: list.New()}
		check := func(how string, rec *Record) {
			if rec.Key != k {
				t.Fatalf("%s accepted a record under key %+v", how, rec.Key)
			}
			if len(data) < len(v2) && bytes.HasPrefix(v2, data) {
				t.Fatalf("%s accepted a torn record (%d of %d bytes)", how, len(data), len(v2))
			}
			if rec.SchemaVersion < 2 || rec.Doc == nil {
				if rec.Plan == nil {
					t.Fatalf("%s accepted a record with neither plan nor document", how)
				}
				return
			}
			if len(rec.Doc) != rec.DocBytes || crc32.Checksum(rec.Doc, castagnoli) != rec.DocCRC32C {
				t.Fatalf("%s accepted a document that fails its length or CRC", how)
			}
			if rec.Plan == nil && !bytes.HasSuffix(data, append(bytes.Clone(rec.Doc), '}')) {
				t.Fatalf("%s served document bytes the record does not end with", how)
			}
		}
		for _, withPlan := range []bool{false, true} {
			_ = b.Put(id, data)
			if rec, ok := s.lookup(k, withPlan); ok {
				check("lookup", rec)
			}
		}
		if err := s.PutRaw(id, data); err == nil {
			rec, err := decodeRecord(id, data)
			if err != nil {
				t.Fatalf("PutRaw accepted what decodeRecord refuses: %v", err)
			}
			check("PutRaw", rec)
		}
	})
}
