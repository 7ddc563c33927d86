package export

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"fmt"
	"tapas/internal/baselines"
	"tapas/internal/cluster"

	"tapas/internal/cost"
	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/mining"
	"tapas/internal/models"
	"tapas/internal/strategy"
)

func megatronPlan(t *testing.T) (*ir.GNGraph, *strategy.Strategy) {
	t.Helper()
	src, err := models.Build("t5-100M")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.Group(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := baselines.Megatron(g, 8, cost.Default(cluster.V100x8()))
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

// planDocument encodes s's plan document the way the CLI and the
// daemon write it.
func planDocument(t *testing.T, s *strategy.Strategy) *bytes.Buffer {
	t.Helper()
	doc, err := FromStrategy(s)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewBuffer(data)
}

func TestStrategyJSONRoundTrip(t *testing.T) {
	g, s := megatronPlan(t)

	buf := planDocument(t, s)
	sj, err := ReadStrategyJSON(buf)
	if err != nil {
		t.Fatal(err)
	}
	if sj.Workers != 8 || len(sj.Assignments) != len(g.Nodes) {
		t.Fatalf("round trip lost data: workers=%d assignments=%d", sj.Workers, len(sj.Assignments))
	}

	re, err := sj.Rehydrate(g, cost.Default(cluster.V100x8()))
	if err != nil {
		t.Fatal(err)
	}
	// The rehydrated strategy must assign the same pattern names.
	for _, gn := range s.Graph.Nodes {
		p := s.Assign[gn.ID]
		if re.Assign[gn.ID].Name != p.Name {
			t.Errorf("node %v: %s became %s", gn, p.Name, re.Assign[gn.ID].Name)
		}
	}
	if re.MemPerDev != s.MemPerDev {
		t.Errorf("memory changed: %d vs %d", re.MemPerDev, s.MemPerDev)
	}
}

func TestRehydrateRejectsWrongGraph(t *testing.T) {
	g, s := megatronPlan(t)
	buf := planDocument(t, s)
	sj, err := ReadStrategyJSON(buf)
	if err != nil {
		t.Fatal(err)
	}

	other, err := models.Build("resnet-26M")
	if err != nil {
		t.Fatal(err)
	}
	og, err := ir.Group(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sj.Rehydrate(og, cost.Default(cluster.V100x8())); err == nil {
		t.Error("rehydrating onto the wrong graph must fail")
	}
	_ = g
}

func TestReadStrategyJSONGarbage(t *testing.T) {
	if _, err := ReadStrategyJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage input must fail")
	}
}

func TestSchemaVersioning(t *testing.T) {
	_, s := megatronPlan(t)
	buf := planDocument(t, s)
	if !strings.Contains(buf.String(), `"schema_version": 1`) {
		t.Error("written plan carries no schema_version")
	}
	sj, err := ReadStrategyJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sj.SchemaVersion != SchemaVersion {
		t.Errorf("read version %d, want %d", sj.SchemaVersion, SchemaVersion)
	}

	// A pre-versioning document (no schema_version field) is refused
	// like any other version this build does not read.
	legacy := strings.Replace(buf.String(), `"schema_version": 1,`, "", 1)
	if _, err := ReadStrategyJSON(strings.NewReader(legacy)); err == nil || !strings.Contains(err.Error(), "schema_version 0") {
		t.Errorf("version-0 document: err = %v, want a schema_version refusal", err)
	}

	// A document from the future is rejected by the reader, and
	// Rehydrate refuses both.
	future := strings.Replace(buf.String(), `"schema_version": 1`, `"schema_version": 99`, 1)
	if _, err := ReadStrategyJSON(strings.NewReader(future)); err == nil {
		t.Error("future schema_version must be rejected")
	}
	g, _ := megatronPlan(t)
	for _, v := range []int{0, 99} {
		sj.SchemaVersion = v
		if _, err := sj.Rehydrate(g, cost.Default(cluster.V100x8())); err == nil {
			t.Errorf("Rehydrate must reject schema_version %d", v)
		}
	}
}

// TestRehydrateRenamedNodes: rehydration matches by topological node ID
// and pattern name, not node names — a structurally identical graph
// with different tensor/layer names must accept the plan and price it
// identically.
func TestRehydrateRenamedNodes(t *testing.T) {
	build := func(prefix string) *ir.GNGraph {
		b := graph.NewBuilder(prefix + "-mlp")
		x := b.Input(prefix+"_in", graph.F32, graph.NewShape(32, 1024))
		for i := 0; i < 4; i++ {
			b.SetLayer(fmt.Sprintf("%s_block.%d", prefix, i))
			h := b.Dense(fmt.Sprintf("%s_up%d", prefix, i), x, 4096, graph.OpGeLU)
			h = b.Dense(fmt.Sprintf("%s_down%d", prefix, i), h, 1024, graph.OpIdentity)
			x = b.Residual(fmt.Sprintf("%s_res%d", prefix, i), x, h)
		}
		b.SetLayer(prefix + "_head")
		y := b.Dense(prefix+"_head", x, 1000, graph.OpIdentity)
		b.Op(graph.OpCrossEntropy, prefix+"_loss", graph.NewShape(32), y)
		gg, err := ir.Group(b.G)
		if err != nil {
			t.Fatal(err)
		}
		return gg
	}

	orig := build("alpha")
	cl := cluster.V100x8()
	model := cost.Default(cl)
	classes := mining.Fold(orig, mining.Mine(context.Background(), orig, mining.DefaultOptions()))
	s, _, err := strategy.SearchFolded(context.Background(), orig, classes, model, strategy.DefaultEnumOptions(8), cl.MemoryPerGP)
	if err != nil {
		t.Fatal(err)
	}

	buf := planDocument(t, s)
	sj, err := ReadStrategyJSON(buf)
	if err != nil {
		t.Fatal(err)
	}

	renamed := build("omega") // same structure, every name different
	re, err := sj.Rehydrate(renamed, model)
	if err != nil {
		t.Fatalf("rehydrating onto renamed graph: %v", err)
	}
	if got, want := model.StrategyCost(re.Assign, re.Reshard).Total(), s.Cost.Total(); got != want {
		t.Errorf("renamed-graph cost %v != original %v", got, want)
	}
	if re.MemPerDev != s.MemPerDev {
		t.Errorf("renamed-graph memory %d != original %d", re.MemPerDev, s.MemPerDev)
	}
	// Pattern choices align position-by-position.
	for i, gn := range renamed.Nodes {
		if re.Assign[gn.ID].Name != s.Assign[orig.Nodes[i].ID].Name {
			t.Errorf("node %d: pattern %q != original %q", i, re.Assign[gn.ID].Name, s.Assign[orig.Nodes[i].ID].Name)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g, s := megatronPlan(t)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "digraph tapas {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("not a DOT document")
	}
	if !strings.Contains(out, "palegreen") {
		t.Error("Megatron plan should color column-parallel nodes")
	}
	if c := strings.Count(out, "->"); c != g.NumEdges() {
		t.Errorf("DOT has %d edges, graph has %d", c, g.NumEdges())
	}

	// Without a strategy the graph still renders.
	buf.Reset()
	if err := WriteDOT(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "white") {
		t.Error("strategy-less DOT should use the default fill")
	}
}

func TestJSONIncludesSRCAndComm(t *testing.T) {
	_, s := megatronPlan(t)
	buf := planDocument(t, s)
	out := buf.String()
	if !strings.Contains(out, "CAR") {
		t.Error("JSON should carry SRC expressions")
	}
	if !strings.Contains(out, "AllReduce") {
		t.Error("JSON should carry collective events")
	}
}

func TestRehydrateSearchResult(t *testing.T) {
	// A searched (not hand-built) strategy round-trips too.
	src, err := models.Build("moe-380M")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ir.Group(src)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.V100x8()
	classes := mining.Fold(g, mining.Mine(context.Background(), g, mining.DefaultOptions()))
	s, _, err := strategy.SearchFolded(context.Background(), g, classes, cost.Default(cl), strategy.DefaultEnumOptions(8), cl.MemoryPerGP)
	if err != nil {
		t.Fatal(err)
	}
	buf := planDocument(t, s)
	sj, err := ReadStrategyJSON(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sj.Rehydrate(g, cost.Default(cluster.V100x8())); err != nil {
		t.Fatal(err)
	}
}

// TestDocumentIsMarshalIndent: Document is json.MarshalIndent's bytes,
// for a real plan and for compact JSON whose strings hold every byte the
// indenter treats specially.
func TestDocumentIsMarshalIndent(t *testing.T) {
	_, s := megatronPlan(t)
	sj, err := FromStrategy(s)
	if err != nil {
		t.Fatal(err)
	}
	sj.Model = `odd "name" {with} [brackets], colons: and \ slashes <&>`
	sj.Assignments[0].Fwd = []EventJSON{}
	got, err := sj.Document()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(sj, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Document differs from MarshalIndent: %d bytes, want %d", len(got), len(want))
	}
	for _, src := range []string{
		`{}`, `[]`, `[[],{}]`, `{"a":{},"b":[]}`, `{"a":[1,2,{"b":null}],"c":"x,y:{z}[w]"}`,
		`["\"","\\","\\\"",":",",","{","}","[","]","é\n"]`, `-1.5e-7`, `"s"`, `[true,false,null]`,
	} {
		var want bytes.Buffer
		if err := json.Indent(&want, []byte(src), "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := indent(nil, []byte(src)); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("indent(%s) =\n%s\nwant\n%s", src, got, want.Bytes())
		}
	}
}

// TestNamesDigestOfGraphAndDocument: the names digest of every
// registered model's grouped graph is the one its plan documents carry,
// and renaming an operator a document names changes it.
func TestNamesDigestOfGraphAndDocument(t *testing.T) {
	for _, name := range models.Names() {
		src, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ir.Group(src)
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]*ir.Pattern, len(g.Nodes))
		for i, gn := range g.Nodes {
			assign[i] = ir.PatternsFor(gn, 4)[0]
		}
		s, err := strategy.New(g, assign, 4, true, cost.Default(cluster.V100GPUs(4)))
		if err != nil {
			t.Fatal(err)
		}
		sj, err := FromStrategy(s)
		if err != nil {
			t.Fatal(err)
		}
		digest := GraphNamesDigest(g)
		if got := sj.NamesDigest(); got != digest {
			t.Errorf("%s: document digest %s, graph digest %s", name, got[:12], digest[:12])
		}
		named := g.Nodes[len(g.Nodes)/2].Ops[0] // a document names a node by its anchor or first operator
		if a := g.Nodes[len(g.Nodes)/2].Anchor; a != nil {
			named = a
		}
		named.Name += "'"
		if GraphNamesDigest(g) == digest {
			t.Errorf("%s: renaming the operator a node is named after left the digest unchanged", name)
		}
	}
}
