// Package export serializes search artifacts: strategies to JSON (for
// downstream training launchers or inspection) and graphs to Graphviz DOT
// (for visual debugging of the GraphNode IR and the discovered plans).
package export

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"sort"
	"strings"

	"tapas/internal/comm"
	"tapas/internal/cost"
	"tapas/internal/ir"
	"tapas/internal/strategy"
)

// SchemaVersion is the current wire schema of StrategyJSON. The policy:
// additive changes (new optional fields) keep the version; any change
// that would break an existing reader — renaming or removing a field,
// changing a field's meaning or units — bumps it. Version 1 is the only
// one ever written, so it is the only one read.
const SchemaVersion = 1

// checkVersion refuses a document this build cannot read.
func checkVersion(v int) error {
	if v != SchemaVersion {
		return fmt.Errorf("export: strategy schema_version %d is not the supported version %d", v, SchemaVersion)
	}
	return nil
}

// StrategyJSON is the on-disk and on-wire form of a parallel strategy.
// The service package republishes it verbatim as service.PlanJSON — the
// v1 plan DTO of the HTTP API.
type StrategyJSON struct {
	SchemaVersion int              `json:"schema_version"`
	Model         string           `json:"model"`
	Workers       int              `json:"workers"`
	CostSeconds   float64          `json:"cost_seconds"`
	MemBytes      int64            `json:"mem_bytes_per_device"`
	Assignments   []AssignmentJSON `json:"assignments"`
	Reshard       []EventJSON      `json:"reshard"`
}

// AssignmentJSON is one GraphNode's pattern choice.
type AssignmentJSON struct {
	Node    int         `json:"node"`
	Name    string      `json:"node_name"`
	Kind    string      `json:"kind"`
	Layer   string      `json:"layer,omitempty"`
	Pattern string      `json:"pattern"`
	In      string      `json:"in"`
	Out     string      `json:"out"`
	SRC     string      `json:"src,omitempty"`
	Weights []string    `json:"weight_specs,omitempty"`
	Fwd     []EventJSON `json:"fwd_comm,omitempty"`
	Bwd     []EventJSON `json:"bwd_comm,omitempty"`
}

// EventJSON is one collective event.
type EventJSON struct {
	Kind    string `json:"kind"`
	Bytes   int64  `json:"bytes"`
	Workers int    `json:"workers"`
}

func eventJSON(e comm.Event) EventJSON {
	return EventJSON{Kind: e.Kind.String(), Bytes: e.Bytes, Workers: e.W}
}

// FromStrategy renders a strategy in its wire form at the current
// SchemaVersion.
func FromStrategy(s *strategy.Strategy) (*StrategyJSON, error) {
	out := &StrategyJSON{
		SchemaVersion: SchemaVersion,
		Model:         s.Graph.Src.Name,
		Workers:       s.W,
		CostSeconds:   s.Cost.Total(),
		MemBytes:      s.MemPerDev,
	}
	for _, gn := range s.Graph.TopoOrder() {
		p := s.Assign[gn.ID]
		if p == nil {
			return nil, fmt.Errorf("export: node %v unassigned", gn)
		}
		a := AssignmentJSON{
			Node:    gn.ID,
			Name:    gn.String(),
			Kind:    gn.Kind.String(),
			Layer:   gn.Layer,
			Pattern: p.Name,
			In:      p.In.String(),
			Out:     p.Out.String(),
			SRC:     p.SRC,
		}
		for _, ws := range p.WeightSpecs {
			a.Weights = append(a.Weights, ws.String())
		}
		for _, e := range p.FwdComm {
			a.Fwd = append(a.Fwd, eventJSON(e))
		}
		for _, e := range p.BwdComm {
			a.Bwd = append(a.Bwd, eventJSON(e))
		}
		out.Assignments = append(out.Assignments, a)
	}
	for _, e := range s.Reshard {
		out.Reshard = append(out.Reshard, eventJSON(e))
	}
	return out, nil
}

// Document renders sj as the plan document: two-space-indented JSON
// without a trailing newline, byte for byte what json.MarshalIndent(sj,
// "", "  ") gives. It indents the compact encoding in one pass over its
// bytes, several times faster than encoding/json's general indenter on
// a large plan.
func (sj *StrategyJSON) Document() ([]byte, error) {
	compact, err := json.Marshal(sj)
	if err != nil {
		return nil, err
	}
	return indent(make([]byte, 0, len(compact)+len(compact)/2), compact), nil
}

// indent appends src, compact JSON as json.Marshal writes it, to dst
// indented as json.Indent(dst, src, "", "  ") would: a newline and two
// spaces per level after every opening bracket and comma and before
// every closing bracket, ": " after a key, empty objects and arrays
// kept as they are.
func indent(dst, src []byte) []byte {
	depth := 0
	newline := func() {
		dst = append(dst, '\n')
		for i := 0; i < depth; i++ {
			dst = append(dst, ' ', ' ')
		}
	}
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			j := i + 1
			for ; j < len(src) && src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			dst = append(dst, src[i:min(j+1, len(src))]...)
			i = j
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				dst = append(dst, c, src[i+1])
				i++
				continue
			}
			dst = append(dst, c)
			depth++
			newline()
		case '}', ']':
			depth--
			newline()
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			newline()
		case ':':
			dst = append(dst, c, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// ReadStrategyJSON parses a serialized strategy (metadata only — the
// original graph is needed to rehydrate pattern pointers). Documents
// at any version but SchemaVersion are rejected.
func ReadStrategyJSON(r io.Reader) (*StrategyJSON, error) {
	var out StrategyJSON
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("export: decode strategy: %w", err)
	}
	if err := checkVersion(out.SchemaVersion); err != nil {
		return nil, err
	}
	return &out, nil
}

// maxRehydrateWorkers bounds the worker count a plan document may
// claim. Pattern menus are materialized per distinct node and W, so an
// absurd W from a hostile or corrupted document must be rejected up
// front, not fed to the allocator.
const maxRehydrateWorkers = 1 << 20

// Rehydrate re-attaches the serialized strategy to its GraphNode graph,
// reconstructing the full in-memory Strategy priced under model. The
// graph must be structurally the same model the strategy was searched on
// (checked via node count and pattern availability; node names may
// differ — matching is by topological node ID and pattern name).
func (sj *StrategyJSON) Rehydrate(g *ir.GNGraph, model *cost.Model) (*strategy.Strategy, error) {
	if err := checkVersion(sj.SchemaVersion); err != nil {
		return nil, err
	}
	if err := checkWorkers(sj.Workers); err != nil {
		return nil, err
	}
	if len(sj.Assignments) != len(g.Nodes) {
		return nil, fmt.Errorf("export: strategy has %d assignments, graph has %d nodes",
			len(sj.Assignments), len(g.Nodes))
	}
	names := make([]string, len(g.Nodes))
	for _, a := range sj.Assignments {
		if a.Node < 0 || a.Node >= len(g.Nodes) {
			return nil, fmt.Errorf("export: node id %d out of range", a.Node)
		}
		names[a.Node] = a.Pattern
	}
	return RehydrateNames(g, sj.Workers, names, model)
}

// checkWorkers refuses a worker count no plan can have.
func checkWorkers(w int) error {
	if w < 1 || w > maxRehydrateWorkers {
		return fmt.Errorf("export: implausible worker count %d (want 1..%d)", w, maxRehydrateWorkers)
	}
	return nil
}

// RehydrateNames is Rehydrate from one pattern name per GraphNode,
// indexed by node ID, at the given worker count: the part of a plan
// document that determines the strategy.
func RehydrateNames(g *ir.GNGraph, workers int, names []string, model *cost.Model) (*strategy.Strategy, error) {
	if err := checkWorkers(workers); err != nil {
		return nil, err
	}
	if len(names) != len(g.Nodes) {
		return nil, fmt.Errorf("export: strategy has %d assignments, graph has %d nodes", len(names), len(g.Nodes))
	}
	assign := make([]*ir.Pattern, len(g.Nodes))
	for id, gn := range g.Nodes {
		for _, p := range ir.PatternsFor(gn, workers) {
			if p.Name == names[id] {
				assign[id] = p
				break
			}
		}
		if assign[id] == nil {
			return nil, fmt.Errorf("export: pattern %q unavailable for node %v", names[id], gn)
		}
	}
	s, err := strategy.New(g, assign, workers, true, model)
	if err != nil {
		return nil, fmt.Errorf("export: rehydrated strategy invalid: %w", err)
	}
	return s, nil
}

// NamesDigest is the hex SHA-256 of what the document took from its
// graph beyond the graph's structure: the model name and every node's
// name, kind and layer, in document order. It equals GraphNamesDigest of
// the graph the document was rendered from.
func (sj *StrategyJSON) NamesDigest() string {
	d := newNamesDigest(sj.Model)
	for _, a := range sj.Assignments {
		d.str(a.Name)
		d.str(a.Kind)
		d.str(a.Layer)
	}
	return d.sum()
}

// GraphNamesDigest is the NamesDigest of any plan document rendered
// from g (see FromStrategy): two structurally identical graphs render
// byte-identical documents for one strategy exactly when their digests
// are equal.
func GraphNamesDigest(g *ir.GNGraph) string {
	d := newNamesDigest(g.Src.Name)
	var name []byte
	for _, gn := range g.TopoOrder() {
		name = gn.AppendName(name[:0])
		d.bytes(name)
		d.str(gn.Kind.String())
		d.str(gn.Layer)
	}
	return d.sum()
}

// namesDigest hashes length-prefixed strings.
type namesDigest struct {
	h   hash.Hash
	buf [8]byte
}

func newNamesDigest(model string) *namesDigest {
	d := &namesDigest{h: sha256.New()}
	d.str(model)
	return d
}

func (d *namesDigest) str(s string) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(len(s)))
	d.h.Write(d.buf[:])
	io.WriteString(d.h, s)
}

func (d *namesDigest) bytes(b []byte) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(len(b)))
	d.h.Write(d.buf[:])
	d.h.Write(b)
}

func (d *namesDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// WriteDOT renders the GraphNode graph in Graphviz DOT form, coloring
// nodes by the strategy's pattern choice when s is non-nil.
func WriteDOT(w io.Writer, g *ir.GNGraph, s *strategy.Strategy) error {
	var b strings.Builder
	b.WriteString("digraph tapas {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
	color := func(p *ir.Pattern) string {
		if p == nil {
			return "white"
		}
		switch {
		case p.Name == "replicate":
			return "lightgray"
		case p.Name == "data-parallel" || strings.HasPrefix(p.Name, "pass-split0"):
			return "lightblue"
		case strings.Contains(p.Name, "column"):
			return "palegreen"
		case strings.Contains(p.Name, "row"):
			return "lightsalmon"
		case strings.Contains(p.Name, "expert"):
			return "plum"
		default:
			return "khaki"
		}
	}
	for _, gn := range g.Nodes {
		var p *ir.Pattern
		if s != nil {
			p = s.Assign[gn.ID]
		}
		label := fmt.Sprintf("%s\\n%s", gn.Kind, gn.Layer)
		if p != nil {
			label += "\\n" + p.Name
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\", style=filled, fillcolor=%s];\n", gn.ID, label, color(p))
	}
	for _, gn := range g.Nodes {
		succs := g.Succs(gn)
		ids := make([]int, 0, len(succs))
		for _, sc := range succs {
			ids = append(ids, sc.ID)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", gn.ID, id)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
