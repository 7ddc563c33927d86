// Package graphio parses a small line-oriented model-description language
// into computational graphs, so downstream users can run TAPAS on custom
// architectures without writing Go. The format mirrors how the builders
// construct graphs:
//
//	model my-mlp
//	input x f32 32 1024
//	repeat 12 block
//	  layernorm ln x
//	  dense fc1 ln 4096 gelu
//	  dense fc2 fc1 1024 none
//	  residual x x fc2
//	end
//	dense head x 32000 none
//	loss l head
//
// Lines: `model NAME`, `layer TAG`, `input NAME DTYPE DIMS...`,
// `dense NAME IN OUTFEATURES ACT`, `layernorm NAME IN`,
// `conv2d NAME IN KH KW COUT STRIDE [bnrelu]`,
// `embedding NAME IN VOCAB DIM`, `residual NAME A B`, `loss NAME IN`,
// `repeat N TAG ... end`. Inside a repeat block, assigning to an existing
// name rebinds it for the next iteration (the idiomatic `residual x ...`
// threads the stack). `#` starts a comment.
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tapas/internal/graph"
)

// Parse reads a model spec and builds its graph.
func Parse(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	var lines []string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		lines = append(lines, strings.TrimSpace(line))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	p := &parser{
		b:   graph.NewBuilder("spec"),
		env: map[string]*graph.Tensor{},
	}
	if err := p.run(lines, 0, len(lines), 0); err != nil {
		return nil, err
	}
	if err := p.b.G.Validate(); err != nil {
		return nil, fmt.Errorf("graphio: built graph invalid: %w", err)
	}
	return p.b.G, nil
}

// maxSpecOps bounds the directives a spec may execute, counting repeat
// expansion: nested repeats multiply, so an unbounded count is a
// denial-of-service vector for servers parsing untrusted inline specs.
// 65536 operators is an order of magnitude beyond the largest
// registered model. Repeat counts above the bound are rejected before
// their body runs at all.
const maxSpecOps = 1 << 16

type parser struct {
	b   *graph.Builder
	env map[string]*graph.Tensor
	ops int // directives executed, repeat expansion included
}

func (p *parser) lookup(name string, lineNo int) (*graph.Tensor, error) {
	t, ok := p.env[name]
	if !ok {
		return nil, fmt.Errorf("graphio: line %d: unknown tensor %q", lineNo+1, name)
	}
	return t, nil
}

// define binds a tensor name. At repeat depth 0 an existing name is a
// duplicate (rebinding is the repeat-block idiom, not a top-level one).
func (p *parser) define(name string, t *graph.Tensor, lineNo, depth int) error {
	if _, exists := p.env[name]; exists && depth == 0 {
		return fmt.Errorf("graphio: line %d: duplicate tensor name %q (rebinding is only allowed inside repeat)", lineNo+1, name)
	}
	p.env[name] = t
	return nil
}

// run executes lines[from:to] at the given repeat-nesting depth.
func (p *parser) run(lines []string, from, to, depth int) error {
	for i := from; i < to; i++ {
		line := lines[i]
		if line == "" {
			continue
		}
		if p.ops++; p.ops > maxSpecOps {
			return fmt.Errorf("graphio: line %d: spec expands beyond %d operations (runaway repeat?)", i+1, maxSpecOps)
		}
		f := strings.Fields(line)
		cmd, args := f[0], f[1:]
		switch cmd {
		case "model":
			if len(args) != 1 {
				return fmt.Errorf("graphio: line %d: model NAME", i+1)
			}
			p.b.G.Name = args[0]

		case "layer":
			if len(args) != 1 {
				return fmt.Errorf("graphio: line %d: layer TAG", i+1)
			}
			p.b.SetLayer(args[0])

		case "input":
			if len(args) < 3 {
				return fmt.Errorf("graphio: line %d: input NAME DTYPE DIMS...", i+1)
			}
			dt, err := parseDType(args[1])
			if err != nil {
				return fmt.Errorf("graphio: line %d: %w", i+1, err)
			}
			dims, err := parseDims(args[2:])
			if err != nil {
				return fmt.Errorf("graphio: line %d: %w", i+1, err)
			}
			if err := p.define(args[0], p.b.Input(args[0], dt, dims), i, depth); err != nil {
				return err
			}

		case "dense":
			if len(args) != 4 {
				return fmt.Errorf("graphio: line %d: dense NAME IN OUTFEATURES ACT", i+1)
			}
			in, err := p.lookup(args[1], i)
			if err != nil {
				return err
			}
			outF, err := strconv.ParseInt(args[2], 10, 64)
			if err != nil || outF <= 0 {
				return fmt.Errorf("graphio: line %d: bad width %q", i+1, args[2])
			}
			act, err := parseAct(args[3])
			if err != nil {
				return fmt.Errorf("graphio: line %d: %w", i+1, err)
			}
			if err := p.define(args[0], p.b.Dense(args[0], in, outF, act), i, depth); err != nil {
				return err
			}

		case "layernorm":
			if len(args) != 2 {
				return fmt.Errorf("graphio: line %d: layernorm NAME IN", i+1)
			}
			in, err := p.lookup(args[1], i)
			if err != nil {
				return err
			}
			if err := p.define(args[0], p.b.LayerNorm(args[0], in), i, depth); err != nil {
				return err
			}

		case "conv2d":
			if len(args) < 6 {
				return fmt.Errorf("graphio: line %d: conv2d NAME IN KH KW COUT STRIDE [bnrelu]", i+1)
			}
			in, err := p.lookup(args[1], i)
			if err != nil {
				return err
			}
			if in.Shape.Rank() != 4 {
				return fmt.Errorf("graphio: line %d: conv2d input %q is %v, want NHWC (rank 4)", i+1, args[1], in.Shape)
			}
			nums, err := parseDims(args[2:6])
			if err != nil {
				return fmt.Errorf("graphio: line %d: %w", i+1, err)
			}
			act := len(args) > 6 && args[6] == "bnrelu"
			if err := p.define(args[0], p.b.Conv2D(args[0], in, nums[0], nums[1], nums[2], nums[3], act), i, depth); err != nil {
				return err
			}

		case "embedding":
			if len(args) != 4 {
				return fmt.Errorf("graphio: line %d: embedding NAME IN VOCAB DIM", i+1)
			}
			in, err := p.lookup(args[1], i)
			if err != nil {
				return err
			}
			nums, err := parseDims(args[2:4])
			if err != nil {
				return fmt.Errorf("graphio: line %d: %w", i+1, err)
			}
			table := p.b.Weight(args[0]+"_table", graph.NewShape(nums[0], nums[1]))
			outShape := in.Shape.Clone()
			outShape = append(outShape, nums[1])
			if err := p.define(args[0], p.b.Op(graph.OpEmbedding, args[0], outShape, in, table), i, depth); err != nil {
				return err
			}

		case "residual":
			if len(args) != 3 {
				return fmt.Errorf("graphio: line %d: residual NAME A B", i+1)
			}
			a, err := p.lookup(args[1], i)
			if err != nil {
				return err
			}
			bb, err := p.lookup(args[2], i)
			if err != nil {
				return err
			}
			if !a.Shape.Equal(bb.Shape) {
				return fmt.Errorf("graphio: line %d: residual of %v and %v, want one shape", i+1, a.Shape, bb.Shape)
			}
			if err := p.define(args[0], p.b.Residual(args[0], a, bb), i, depth); err != nil {
				return err
			}

		case "loss":
			if len(args) != 2 {
				return fmt.Errorf("graphio: line %d: loss NAME IN", i+1)
			}
			in, err := p.lookup(args[1], i)
			if err != nil {
				return err
			}
			out := in.Shape.Clone()
			if out.Rank() > 1 {
				out = out[:out.Rank()-1]
			}
			if err := p.define(args[0], p.b.Op(graph.OpCrossEntropy, args[0], out, in), i, depth); err != nil {
				return err
			}

		case "repeat":
			if len(args) != 2 {
				return fmt.Errorf("graphio: line %d: repeat N TAG", i+1)
			}
			n, err := strconv.Atoi(args[0])
			if err != nil || n < 1 {
				return fmt.Errorf("graphio: line %d: bad repeat count %q", i+1, args[0])
			}
			if n > maxSpecOps {
				return fmt.Errorf("graphio: line %d: repeat count %d exceeds the %d-operation budget", i+1, n, maxSpecOps)
			}
			end, err := matchEnd(lines, i)
			if err != nil {
				return err
			}
			for rep := 0; rep < n; rep++ {
				p.b.SetLayer(fmt.Sprintf("%s.%d", args[1], rep))
				if err := p.run(lines, i+1, end, depth+1); err != nil {
					return err
				}
			}
			i = end // skip past "end"

		case "end":
			return fmt.Errorf("graphio: line %d: end without repeat", i+1)

		default:
			return fmt.Errorf("graphio: line %d: unknown directive %q", i+1, cmd)
		}
	}
	return nil
}

// matchEnd finds the "end" matching the repeat at index i.
func matchEnd(lines []string, i int) (int, error) {
	depth := 0
	for j := i + 1; j < len(lines); j++ {
		f := strings.Fields(lines[j])
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "repeat":
			depth++
		case "end":
			if depth == 0 {
				return j, nil
			}
			depth--
		}
	}
	return 0, fmt.Errorf("graphio: line %d: repeat without end", i+1)
}

func parseDims(args []string) (graph.Shape, error) {
	dims := make(graph.Shape, len(args))
	for i, a := range args {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad dimension %q", a)
		}
		dims[i] = v
	}
	return dims, nil
}

func parseDType(s string) (graph.DType, error) {
	switch s {
	case "f32":
		return graph.F32, nil
	case "f16":
		return graph.F16, nil
	case "i32":
		return graph.I32, nil
	default:
		return graph.F32, fmt.Errorf("unknown dtype %q", s)
	}
}

func parseAct(s string) (graph.OpKind, error) {
	switch s {
	case "relu":
		return graph.OpReLU, nil
	case "gelu":
		return graph.OpGeLU, nil
	case "tanh":
		return graph.OpTanh, nil
	case "sigmoid":
		return graph.OpSigmoid, nil
	case "none":
		return graph.OpIdentity, nil
	default:
		return graph.OpIdentity, fmt.Errorf("unknown activation %q", s)
	}
}
