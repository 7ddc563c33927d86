package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"

	"tapas/internal/export"
)

// RecordSchemaVersion is the on-disk record schema this build writes.
// Additive changes keep the version; breaking changes bump it. Get
// drops records newer than this (reported as corrupt, not fatal) and
// reads every older one; the plan document carries its own
// export.SchemaVersion.
//
// Version 2 frames the plan document after a compact JSON header (see
// Encode). Version 1 kept the plan as an ordinary field of one JSON
// object; such records are still read, and a store hit serves them by
// rendering the plan again.
const RecordSchemaVersion = 2

// Record is one persisted search outcome: the plan document plus enough
// metadata to serve a repeat request without re-searching.
//
// In a version 2 record every field but Plan and Doc is the header, and
// Doc follows it as the object's last field, "plan". Workers,
// PatternNames, Patterns, CostSeconds, MemBytesPerDevice and Names are
// the plan's facts: what a store hit rehydrates the plan from, and what
// it checks the re-priced plan against before it serves Doc instead of
// rendering the plan again. A version 1 record carries none of them.
type Record struct {
	SchemaVersion int    `json:"schema_version"`
	Key           Key    `json:"key"`
	Model         string `json:"model"`
	GPUs          int    `json:"gpus"`
	Timing        Timing `json:"timing"`
	CreatedUnixMS int64  `json:"created_unix_ms"`

	// Workers is the plan's device count (the document's "workers").
	Workers int `json:"workers"`
	// PatternNames lists the distinct pattern names the plan assigns, in
	// order of first use; Patterns holds one index into it per
	// GraphNode, by node ID (topological order). See SetPatterns and
	// NodePatterns.
	PatternNames []string `json:"pattern_names"`
	Patterns     []int    `json:"patterns"`
	// CostSeconds and MemBytesPerDevice pin the plan's price as the
	// document states it (cost_seconds, mem_bytes_per_device).
	CostSeconds       float64 `json:"cost_seconds"`
	MemBytesPerDevice int64   `json:"mem_bytes_per_device"`
	// Names is the digest of the graph names the document was rendered
	// from (export.GraphNamesDigest): the store key pins the graph's
	// structure, not its names.
	Names string `json:"names_sha256"`
	// DocBytes and DocCRC32C are the document's length and CRC-32C
	// (Castagnoli); a record whose document does not match both is torn
	// or corrupt.
	DocBytes  int    `json:"doc_bytes"`
	DocCRC32C uint32 `json:"doc_crc32c"`

	// Plan is the decoded plan document (export.StrategyJSON, served as
	// service.PlanJSON), rehydratable against any structurally
	// identical graph. Get sets it; Lookup sets it only for records that
	// hold the plan as an ordinary JSON field (version 1, or a version
	// 2 record re-encoded as plain JSON).
	Plan *export.StrategyJSON `json:"plan,omitempty"`
	// Doc is the plan document byte for byte as Result.PlanDocument
	// renders it: two-space-indented JSON without a trailing newline.
	// Lookup and Get set it for version 2 records (Get also decodes it
	// into Plan). Put writes Doc as-is, with the plan facts the record
	// carries, when it is set, and renders both from Plan when it is
	// nil: a caller that changes Plan must clear Doc.
	Doc []byte `json:"-"`
}

// castagnoli is the CRC-32C table records are checked with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// planTag separates a version 2 record's header from its document.
var planTag = []byte(`,"plan":`)

// SetPatterns fills PatternNames and Patterns from one pattern name per
// GraphNode, indexed by node ID.
func (r *Record) SetPatterns(byNode []string) {
	r.PatternNames, r.Patterns = nil, make([]int, len(byNode))
	index := make(map[string]int)
	for id, name := range byNode {
		i, ok := index[name]
		if !ok {
			i = len(r.PatternNames)
			index[name] = i
			r.PatternNames = append(r.PatternNames, name)
		}
		r.Patterns[id] = i
	}
}

// NodePatterns returns the plan's pattern name per GraphNode, indexed by
// node ID. A record the store returned has every index in range.
func (r *Record) NodePatterns() []string {
	out := make([]string, len(r.Patterns))
	for id, i := range r.Patterns {
		out[id] = r.PatternNames[i]
	}
	return out
}

// planFacts fills the plan facts from a decoded plan document.
func (r *Record) planFacts(p *export.StrategyJSON) error {
	byNode := make([]string, len(p.Assignments))
	for _, a := range p.Assignments {
		if a.Node < 0 || a.Node >= len(byNode) || byNode[a.Node] != "" {
			return fmt.Errorf("store: plan assigns node %d out of range or twice", a.Node)
		}
		byNode[a.Node] = a.Pattern
	}
	r.SetPatterns(byNode)
	r.Workers, r.CostSeconds, r.MemBytesPerDevice = p.Workers, p.CostSeconds, p.MemBytes
	r.Names = p.NamesDigest()
	return nil
}

// Encode renders rec as the version 2 record Put writes under k: the
// compact JSON header (rec without Plan, SchemaVersion and Key set by
// the store, CreatedUnixMS stamped when zero, DocBytes and DocCRC32C
// computed), then the document as the last field, "plan". The header
// holds no raw newline and the document opens with one, so a reader
// finds the split without scanning the document. When rec.Doc is nil
// the document and the plan facts are rendered from rec.Plan; otherwise
// rec's plan facts must describe rec.Doc.
func Encode(k Key, rec *Record) ([]byte, error) {
	cp := *rec
	cp.SchemaVersion = RecordSchemaVersion
	cp.Key = k
	if cp.CreatedUnixMS == 0 {
		cp.CreatedUnixMS = time.Now().UnixMilli()
	}
	switch {
	case cp.Doc == nil && cp.Plan == nil:
		return nil, fmt.Errorf("store: refusing to persist a record without a plan")
	case cp.Doc == nil:
		doc, err := cp.Plan.Document()
		if err != nil {
			return nil, fmt.Errorf("store: encode plan: %w", err)
		}
		cp.Doc = doc
		if err := cp.planFacts(cp.Plan); err != nil {
			return nil, err
		}
	}
	if len(cp.Doc) < 2 || cp.Doc[0] != '{' || cp.Doc[1] != '\n' {
		return nil, fmt.Errorf("store: plan document is not an indented JSON object")
	}
	cp.DocBytes, cp.DocCRC32C = len(cp.Doc), crc32.Checksum(cp.Doc, castagnoli)
	doc := cp.Doc
	cp.Plan = nil
	head, err := json.Marshal(&cp)
	if err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	out := make([]byte, 0, len(head)+len(planTag)+len(doc))
	out = append(append(out, head[:len(head)-1]...), planTag...)
	return append(append(out, doc...), '}'), nil
}

// split cuts a version 2 record into its header, closed again as a
// JSON object, and its document. ok is false when data is not framed
// that way (a version 1 record, or a record re-encoded as plain JSON).
func split(data []byte) (head, doc []byte, ok bool) {
	i := bytes.IndexByte(data, '\n')
	if i < 1 || data[i-1] != '{' || data[len(data)-1] != '}' {
		return nil, nil, false
	}
	j := i - 1 - len(planTag)
	if j < 1 || !bytes.Equal(data[j:i-1], planTag) {
		return nil, nil, false
	}
	return append(data[:j:j], '}'), data[i-1 : len(data)-1], true
}

// decodeRecord decodes one record payload, enforcing the schema. name
// is the record's display identity for error messages. A version 2
// record is accepted only whole: its document has the length and the
// CRC-32C its header states, and every pattern index is in range. Its
// document is not decoded (Doc is set, Plan is not), unless the record
// was re-encoded as plain JSON, whose plan is re-rendered and checked
// against the header instead.
func decodeRecord(name string, data []byte) (*Record, error) {
	var rec Record
	head, doc, framed := split(data)
	if framed {
		data = head
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("store: decode %s: %w", name, err)
	}
	if rec.SchemaVersion > RecordSchemaVersion {
		return nil, fmt.Errorf("store: record schema_version %d is newer than supported version %d",
			rec.SchemaVersion, RecordSchemaVersion)
	}
	switch {
	case framed && rec.SchemaVersion < RecordSchemaVersion:
		return nil, fmt.Errorf("store: record %s is framed but has schema_version %d", name, rec.SchemaVersion)
	case framed && rec.Plan != nil:
		return nil, fmt.Errorf("store: record %s has a plan in its header", name)
	case !framed && rec.Plan == nil:
		return nil, fmt.Errorf("store: record %s has no plan", name)
	case !framed && rec.SchemaVersion < RecordSchemaVersion:
		return &rec, nil // version 1: no plan facts, no document
	case !framed:
		var err error
		if doc, err = rec.Plan.Document(); err != nil {
			return nil, fmt.Errorf("store: re-render %s: %w", name, err)
		}
	}
	if len(doc) != rec.DocBytes {
		return nil, fmt.Errorf("store: record %s is torn: document is %d bytes, header says %d", name, len(doc), rec.DocBytes)
	}
	if sum := crc32.Checksum(doc, castagnoli); sum != rec.DocCRC32C {
		return nil, fmt.Errorf("store: record %s fails its CRC-32C (%08x, header says %08x)", name, sum, rec.DocCRC32C)
	}
	for _, i := range rec.Patterns {
		if i < 0 || i >= len(rec.PatternNames) {
			return nil, fmt.Errorf("store: record %s has pattern index %d of %d names", name, i, len(rec.PatternNames))
		}
	}
	rec.Doc = doc
	return &rec, nil
}
