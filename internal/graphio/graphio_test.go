package graphio

import (
	"context"
	"strings"
	"testing"

	"tapas/internal/graph"
	"tapas/internal/ir"
	"tapas/internal/mining"
)

const mlpSpec = `
# a 12-layer residual MLP
model my-mlp
input x f32 32 1024
repeat 12 block
  layernorm ln x
  dense fc1 ln 4096 gelu
  dense fc2 fc1 1024 none
  residual x x fc2
end
layer head
dense head x 32000 none
loss l head
`

func TestParseMLP(t *testing.T) {
	g, err := Parse(strings.NewReader(mlpSpec))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "my-mlp" {
		t.Errorf("name = %q", g.Name)
	}
	st := g.Stats()
	// 12 × (1024×4096 + 4096 + 4096×1024 + 1024 + LN) + head.
	wantMin := int64(12*2*1024*4096 + 1024*32000)
	if st.Params < wantMin {
		t.Errorf("params = %d, want ≥ %d", st.Params, wantMin)
	}
	if st.L != 13 { // 12 blocks + head
		t.Errorf("layers = %d, want 13", st.L)
	}
}

func TestParsedGraphMinesAndFolds(t *testing.T) {
	g, err := Parse(strings.NewReader(mlpSpec))
	if err != nil {
		t.Fatal(err)
	}
	gg, err := ir.Group(g)
	if err != nil {
		t.Fatal(err)
	}
	classes := mining.Fold(gg, mining.Mine(context.Background(), gg, mining.DefaultOptions()))
	if errs := mining.CoverageCheck(gg, classes); len(errs) != 0 {
		t.Fatalf("coverage: %v", errs[0])
	}
	// Twelve identical blocks must fold into one dominant class.
	best := 0
	for _, c := range classes {
		if len(c.Instances) > best {
			best = len(c.Instances)
		}
	}
	if best < 10 {
		t.Errorf("largest class has %d instances, want ≥ 10", best)
	}
}

func TestParseConvNet(t *testing.T) {
	spec := `
model tiny-cnn
input img f32 8 32 32 3
repeat 3 stage
  conv2d c1 img 3 3 16 1 bnrelu
  residual img2 c1 c1
end
`
	// residual of c1 with itself is silly but exercises rebinding; use a
	// cleaner spec instead:
	spec = `
model tiny-cnn
input img f32 8 32 32 3
conv2d stem img 3 3 16 1 bnrelu
repeat 3 stage
  conv2d stem stem 3 3 16 1 bnrelu
end
layer head
dense fc stem 10 none
`
	g, err := Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	convs := 0
	for _, n := range g.Nodes {
		if n.Kind == graph.OpConv2D {
			convs++
		}
	}
	if convs != 4 {
		t.Errorf("convs = %d, want 4", convs)
	}
}

func TestParseEmbedding(t *testing.T) {
	spec := `
model tiny-lm
input tokens i32 8 128
embedding emb tokens 1000 64
layer head
dense head emb 1000 none
loss l head
`
	g, err := Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range g.Nodes {
		if n.Kind == graph.OpEmbedding {
			found = true
			if !n.Outputs[0].Shape.Equal(graph.NewShape(8, 128, 64)) {
				t.Errorf("embedding out shape %v", n.Outputs[0].Shape)
			}
		}
	}
	if !found {
		t.Error("no embedding node")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"dense a b 10 relu",                   // unknown input tensor
		"input x f32 0",                       // bad dim
		"input x f99 4",                       // bad dtype
		"repeat 2 b\ninput x f32 4",           // missing end
		"end",                                 // stray end
		"frobnicate x",                        // unknown directive
		"input x f32 4 4\ndense y x 8 exotic", // bad activation
	}
	for _, spec := range bad {
		if _, err := Parse(strings.NewReader(spec)); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
}

// TestParseErrorMessages pins the diagnostics of every malformed-line
// class: each error must name the offending line number and the
// directive's expected shape (or the bad token), because spec authors
// only see the message.
func TestParseErrorMessages(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want []string // substrings of the error
	}{
		{"model arity", "model", []string{"line 1", "model NAME"}},
		{"layer arity", "layer a b", []string{"line 1", "layer TAG"}},
		{"input arity", "input x f32", []string{"line 1", "input NAME DTYPE DIMS"}},
		{"input bad dtype", "input x f64 4", []string{"line 1", `unknown dtype "f64"`}},
		{"input negative dim", "input x f32 4 -1", []string{"line 1", `bad dimension "-1"`}},
		{"input non-numeric dim", "input x f32 four", []string{"line 1", `bad dimension "four"`}},
		{"dense arity", "input x f32 4 4\ndense y x 8", []string{"line 2", "dense NAME IN OUTFEATURES ACT"}},
		{"dense bad width", "input x f32 4 4\ndense y x wide none", []string{"line 2", `bad width "wide"`}},
		{"dense zero width", "input x f32 4 4\ndense y x 0 none", []string{"line 2", `bad width "0"`}},
		{"dense bad act", "input x f32 4 4\ndense y x 8 swish", []string{"line 2", `unknown activation "swish"`}},
		{"layernorm arity", "input x f32 4 4\nlayernorm ln x x", []string{"line 2", "layernorm NAME IN"}},
		{"conv2d arity", "input x f32 4 8 8 3\nconv2d c x 3 3", []string{"line 2", "conv2d NAME IN KH KW COUT STRIDE"}},
		{"conv2d rank", "input x f32 4 8\nconv2d c x 3 3 8 1", []string{"line 2", "want NHWC (rank 4)"}},
		{"embedding arity", "input t i32 4 16\nembedding e t 100", []string{"line 2", "embedding NAME IN VOCAB DIM"}},
		{"residual arity", "input x f32 4 4\nresidual r x", []string{"line 2", "residual NAME A B"}},
		{"residual shapes", "input x f32 4 4\ninput y f32 4 8\nresidual r x y", []string{"line 3", "want one shape"}},
		{"loss arity", "input x f32 4 4\nloss l", []string{"line 2", "loss NAME IN"}},
		{"unknown tensor", "input x f32 4 4\ndense y z 8 none", []string{"line 2", `unknown tensor "z"`}},
		{"unknown directive", "input x f32 4 4\nsoftmax s x", []string{"line 2", `unknown directive "softmax"`}},
		{"repeat bad count", "input x f32 4 4\nrepeat zero b\ndense y x 4 none\nend", []string{"line 2", `bad repeat count "zero"`}},
		{"repeat zero count", "input x f32 4 4\nrepeat 0 b\ndense y x 4 none\nend", []string{"line 2", `bad repeat count "0"`}},
		{"repeat without end", "input x f32 4 4\nrepeat 2 b\ndense y x 4 none", []string{"line 2", "repeat without end"}},
		{"end without repeat", "input x f32 4 4\nend", []string{"line 2", "end without repeat"}},
		{"repeat count over budget", "input x f32 4 4\nrepeat 100000 b\ndense y x 4 none\nend",
			[]string{"line 2", "repeat count 100000 exceeds"}},
		{"nested repeat expansion over budget", "input x f32 4 4\nrepeat 1024 a\nrepeat 1024 b\ndense y x 4 none\nend\nend",
			[]string{"spec expands beyond", "runaway repeat"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.spec))
			if err == nil {
				t.Fatalf("spec %q should fail", tc.spec)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestParseDuplicateNames: reusing a tensor name outside a repeat block
// is a duplicate (rebinding is the repeat idiom only).
func TestParseDuplicateNames(t *testing.T) {
	bad := []string{
		"input x f32 4 4\ninput x f32 4 4",
		"input x f32 4 4\ndense y x 8 none\ndense y x 8 none",
		"input x f32 4 4\nlayernorm x x",
		"input x f32 4 4\ndense h x 8 none\nresidual h h h",
	}
	for _, spec := range bad {
		_, err := Parse(strings.NewReader(spec))
		if err == nil {
			t.Errorf("spec %q should fail with a duplicate-name error", spec)
			continue
		}
		if !strings.Contains(err.Error(), "duplicate tensor name") {
			t.Errorf("spec %q: error %q does not mention the duplicate", spec, err)
		}
	}

	// The repeat-block rebinding idiom must keep working, including
	// rebinding a name first defined outside the block.
	good := `
model rebind-ok
input x f32 4 64
repeat 3 block
  dense x x 64 relu
  layernorm x x
end
dense head x 10 none
`
	if _, err := Parse(strings.NewReader(good)); err != nil {
		t.Errorf("repeat-block rebinding broke: %v", err)
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	spec := "\n# all comments\nmodel m\ninput x f32 2 4 # trailing\n\ndense y x 8 relu\n"
	g, err := Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) == 0 {
		t.Error("empty graph")
	}
}

func TestNestedRepeat(t *testing.T) {
	spec := `
model nested
input x f32 4 64
repeat 2 outer
  repeat 2 inner
    dense x x 64 relu
  end
end
`
	g, err := Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	matmuls := 0
	for _, n := range g.Nodes {
		if n.Kind == graph.OpMatMul {
			matmuls++
		}
	}
	if matmuls != 4 {
		t.Errorf("matmuls = %d, want 4 (2×2)", matmuls)
	}
}
