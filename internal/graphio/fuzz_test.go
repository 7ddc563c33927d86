package graphio

import (
	"strings"
	"testing"
)

// FuzzParse hammers the spec parser with arbitrary input: it must
// either return a graph that passes Validate (Parse runs it) or an
// error — never panic, never hang on runaway repeat expansion. The
// seed corpus covers every directive, the repeat/rebind idioms of the
// example specs, and every malformed-input class the error-path tests
// pin.
func FuzzParse(f *testing.F) {
	// Well-formed specs: the graphio test models and the shapes the
	// shipped examples use.
	seeds := []string{
		mlpSpec,
		// examples/customspec/model.tapas: repeat block + wide head.
		"model custom-mlp\ninput x f32 32 1024\nrepeat 12 block\n  layernorm ln x\n  dense fc1 ln 4096 gelu\n  dense fc2 fc1 1024 none\n  residual x x fc2\nend\ndense head x 32000 none\nloss l head\n",
		"model tiny-cnn\ninput img f32 8 32 32 3\nconv2d stem img 3 3 16 1 bnrelu\nrepeat 3 stage\n  conv2d stem stem 3 3 16 1 bnrelu\nend\nlayer head\ndense fc stem 10 none\n",
		"model tiny-lm\ninput tokens i32 8 128\nembedding emb tokens 1000 64\nlayer head\ndense head emb 1000 none\nloss l head\n",
		"model nested\ninput x f32 4 64\nrepeat 2 outer\n  repeat 2 inner\n    dense x x 64 relu\n  end\nend\n",
		"\n# all comments\nmodel m\ninput x f32 2 4 # trailing\n\ndense y x 8 relu\n",
		// Every error-path class from TestParseErrors /
		// TestParseErrorMessages / TestParseDuplicateNames.
		"dense a b 10 relu",
		"input x f32 0",
		"input x f99 4",
		"repeat 2 b\ninput x f32 4",
		"end",
		"frobnicate x",
		"input x f32 4 4\ndense y x 8 exotic",
		"model",
		"layer a b",
		"input x f32",
		"input x f64 4",
		"input x f32 4 -1",
		"input x f32 four",
		"input x f32 4 4\ndense y x 8",
		"input x f32 4 4\ndense y x wide none",
		"input x f32 4 4\ndense y x -1 none",
		"input img f32 1\nconv2d c img 1 1 1 1",
		"input x f32 4 4\ninput y f32 4 8\nresidual r x y",
		"input x f32 4 4\ndense y x 8 swish",
		"input x f32 4 4\nlayernorm ln x x",
		"input x f32 4 8 8 3\nconv2d c x 3 3",
		"input t i32 4 16\nembedding e t 100",
		"input x f32 4 4\nresidual r x",
		"input x f32 4 4\nloss l",
		"input x f32 4 4\ndense y z 8 none",
		"input x f32 4 4\nsoftmax s x",
		"input x f32 4 4\nrepeat zero b\ndense y x 4 none\nend",
		"input x f32 4 4\nrepeat 0 b\ndense y x 4 none\nend",
		"input x f32 4 4\nrepeat 2 b\ndense y x 4 none",
		"input x f32 4 4\nend",
		"input x f32 4 4\ninput x f32 4 4",
		"input x f32 4 4\ndense y x 8 none\ndense y x 8 none",
		// Hostile repeat expansion: a huge count is rejected up front;
		// nested moderate counts whose product explodes hit the
		// operation budget mid-expansion.
		"input x f32 4 4\nrepeat 999999 a\nrepeat 999999 b\ndense x x 4 none\nend\nend",
		"input x f32 4 4\nrepeat 1024 a\nrepeat 1024 b\ndense x x 4 none\nend\nend",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := Parse(strings.NewReader(spec))
		if err != nil {
			return
		}
		if g == nil {
			t.Fatal("nil graph with nil error")
		}
		// Parse validated the graph already; a second pass must agree.
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted spec builds an invalid graph: %v\nspec:\n%s", verr, spec)
		}
	})
}
