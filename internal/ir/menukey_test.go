package ir

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tapas/internal/graph"
	"tapas/internal/graphio"
	"tapas/internal/models"
)

// checkSharedMenus fails t for every node of g, at every w, whose shared
// menu differs from the menu built from the node itself.
func checkSharedMenus(t *testing.T, name string, g *GNGraph, widths []int) {
	t.Helper()
	for _, gn := range g.Nodes {
		for _, w := range widths {
			got, want := PatternsFor(gn, w), patternsForUncached(gn, w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %v at W=%d shares the menu of %v, which differs from its own:\n got  %s\n want %s",
					name, gn, w, gn.menu.first, renderMenu(got), renderMenu(want))
			}
		}
	}
}

func renderMenu(ps []*Pattern) string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = renderPattern(p)
	}
	return strings.Join(out, "\n       ")
}

// TestSharedMenusMatchFreshMenus: for every registered model at every
// width the registry is searched at, every node's shared menu equals,
// field by field, the menu built from that node alone.
func TestSharedMenusMatchFreshMenus(t *testing.T) {
	for _, name := range models.Names() {
		src, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Group(src)
		if err != nil {
			t.Fatal(err)
		}
		checkSharedMenus(t, name, g, []int{1, 2, 4, 8, 16, 32})
	}
}

// TestMenuCellsCountDistinctSignatures: on the registered models a node's
// menu key is exactly as fine as its Signature, so a grouped graph builds
// one menu per distinct signature — 11 for t5-1.4B's 1,246 nodes.
func TestMenuCellsCountDistinctSignatures(t *testing.T) {
	var nodes, cells int
	for _, name := range models.Names() {
		src, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Group(src)
		if err != nil {
			t.Fatal(err)
		}
		bySig := make(map[string]*menuCell)
		distinct := make(map[*menuCell]bool)
		for _, gn := range g.Nodes {
			if gn.menu == nil {
				t.Fatalf("%s: %v has no menu cell", name, gn)
			}
			if c, ok := bySig[gn.Signature()]; ok && c != gn.menu {
				t.Errorf("%s: %v and %v have one signature but two menu cells", name, gn, c.first)
			}
			bySig[gn.Signature()] = gn.menu
			distinct[gn.menu] = true
		}
		if len(distinct) != len(bySig) {
			t.Errorf("%s: %d menu cells for %d distinct signatures", name, len(distinct), len(bySig))
		}
		if name == "t5-1.4B" && (len(g.Nodes) != 1246 || len(distinct) != 11) {
			t.Errorf("t5-1.4B: %d menu cells over %d nodes, want 11 over 1,246", len(distinct), len(g.Nodes))
		}
		nodes += len(g.Nodes)
		cells += len(distinct)
	}
	t.Logf("%d registered models: %d menu cells over %d grouped nodes", len(models.Names()), cells, nodes)
}

// applyEdits rewrites a parsed graph in place with one edit per line, so
// a fuzz input can build near-collisions the spec language cannot say:
//
//	tie A B        every use of weight A becomes a use of weight B, when
//	               both have one shape and dtype (weights are numbered in
//	               order of first use)
//	kind I K       operator I (graph order) becomes kind K — concat,
//	               maxpool, avgpool, softmax, transpose or identity — when
//	               it is weight-free, has one output and anchors no node
//	attr I KEY V   operator I gets attribute KEY = V
//
// Lines that do not parse, or name nothing, are skipped.
func applyEdits(g *graph.Graph, edits string) {
	var weights []*graph.Tensor
	for _, n := range g.Nodes {
		for _, t := range n.Inputs {
			if t.Kind == graph.Weight && !slices.Contains(weights, t) {
				weights = append(weights, t)
			}
		}
	}
	kinds := map[string]graph.OpKind{
		"concat": graph.OpConcat, "maxpool": graph.OpMaxPool, "avgpool": graph.OpAvgPool,
		"softmax": graph.OpSoftmax, "transpose": graph.OpTranspose, "identity": graph.OpIdentity,
	}
	for _, line := range strings.Split(edits, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		a, errA := strconv.Atoi(f[1])
		switch {
		case f[0] == "tie" && len(f) == 3:
			b, errB := strconv.Atoi(f[2])
			if errA != nil || errB != nil || a < 0 || b < 0 || a >= len(weights) || b >= len(weights) {
				continue
			}
			from, to := weights[a], weights[b]
			if from.DType != to.DType || !from.Shape.Equal(to.Shape) {
				continue
			}
			for _, n := range g.Nodes {
				for i, t := range n.Inputs {
					if t == from {
						n.Inputs[i] = to
					}
				}
			}
		case f[0] == "kind" && len(f) == 3:
			k, ok := kinds[f[2]]
			if errA != nil || !ok || a < 0 || a >= len(g.Nodes) {
				continue
			}
			n := g.Nodes[a]
			if _, anchor := anchorKind(n); anchor || len(n.Weights()) > 0 || len(n.Inputs) == 0 || len(n.Outputs) != 1 {
				continue
			}
			n.Kind = k
		case f[0] == "attr" && len(f) == 4:
			v, errV := strconv.ParseInt(f[3], 10, 64)
			if errA != nil || errV != nil || a < 0 || a >= len(g.Nodes) {
				continue
			}
			n := g.Nodes[a]
			if n.Attrs == nil {
				n.Attrs = make(map[string]int64)
			}
			n.Attrs[f[2]] = v
		}
	}
}

// FuzzMenuSharing: for any graph that groups, no node's shared menu may
// differ from the menu built from the node alone. An input is a graphio
// spec, optionally followed by a "--" line and edits (see applyEdits).
// The seeds are FuzzParse's well-formed specs, and near-collisions with
// equal shapes everywhere: one weight used twice against two weights of
// one shape, and nodes one attribute, one op kind or one dtype apart.
func FuzzMenuSharing(f *testing.F) {
	// Three LayerNorm+Dense blocks on a 64-wide activation: ops 4i..4i+3
	// are block i's LayerNorm, MatMul, BiasAdd and ReLU, weights 4i..4i+3
	// its gamma, beta, W and bias. Unedited, blocks 1 and 2 key alike.
	const blocks = "model near\ninput x f32 8 64\nrepeat 3 b\n  layernorm ln x\n  dense x ln 64 relu\nend\n"
	seeds := []string{
		// FuzzParse's well-formed specs.
		"# a 12-layer residual MLP\nmodel my-mlp\ninput x f32 32 1024\nrepeat 12 block\n  layernorm ln x\n  dense fc1 ln 4096 gelu\n  dense fc2 fc1 1024 none\n  residual x x fc2\nend\nlayer head\ndense head x 32000 none\nloss l head\n",
		"model custom-mlp\ninput x f32 32 1024\nrepeat 12 block\n  layernorm ln x\n  dense fc1 ln 4096 gelu\n  dense fc2 fc1 1024 none\n  residual x x fc2\nend\ndense head x 32000 none\nloss l head\n",
		"model tiny-cnn\ninput img f32 8 32 32 3\nconv2d stem img 3 3 16 1 bnrelu\nrepeat 3 stage\n  conv2d stem stem 3 3 16 1 bnrelu\nend\nlayer head\ndense fc stem 10 none\n",
		"model tiny-lm\ninput tokens i32 8 128\nembedding emb tokens 1000 64\nlayer head\ndense head emb 1000 none\nloss l head\n",
		"model nested\ninput x f32 4 64\nrepeat 2 outer\n  repeat 2 inner\n    dense x x 64 relu\n  end\nend\n",
		"\n# all comments\nmodel m\ninput x f32 2 4 # trailing\n\ndense y x 8 relu\n",
		// Untied, then block 2's bias tied to its own LayerNorm scale: a
		// column split now shards the tied vector, and block 2 must not
		// share block 1's menu.
		blocks,
		blocks + "--\ntie 11 8\n",
		// Block 2's gamma and beta tied: one vector twice, equal menus.
		blocks + "--\ntie 9 8\n",
		// Blocks 1 and 2's activations become concats, over the feature
		// axis in block 1 and over the batch axis in block 2.
		blocks + "--\nkind 7 concat\nkind 11 concat\nattr 7 axis 1\nattr 11 axis 0\n",
		// Max pools with one attribute of one value, but only block 2's
		// is a window height: equal layouts, unequal FLOPs.
		blocks + "--\nkind 7 maxpool\nkind 11 maxpool\nattr 7 axis 3\nattr 11 kH 3\n",
		// Block 1's activation becomes a softmax: one op kind apart.
		blocks + "--\nkind 7 softmax\n",
		// Two equal dense layers on inputs one dtype apart.
		"model dtypes\ninput a f32 8 64\ninput b f16 8 64\ndense x a 64 relu\ndense y b 64 relu\n",
		// An attribute no generator reads.
		blocks + "--\nattr 11 note 1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		spec, edits, _ := strings.Cut(input, "\n--\n")
		src, err := graphio.Parse(strings.NewReader(spec))
		if err != nil || len(src.Nodes) > 2000 {
			return
		}
		applyEdits(src, edits)
		g, err := Group(src)
		if err != nil {
			return
		}
		checkSharedMenus(t, "fuzzed graph", g, []int{1, 2, 3, 4, 8})
	})
}
