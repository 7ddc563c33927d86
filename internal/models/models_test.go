package models

import (
	"strings"
	"testing"

	"tapas/internal/graph"
)

// paramTolerance checks that got is within frac of want.
func withinFrac(got, want int64, frac float64) bool {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d <= frac*float64(want)
}

func TestT5ParameterScaling(t *testing.T) {
	// The paper's Fig. 6 x-axis: 100M, 200M, 350M(300M), 770M, 1.4B.
	cases := map[string]int64{
		"100M": 100e6, "200M": 200e6, "770M": 770e6, "1.4B": 1400e6,
	}
	for size, want := range cases {
		g := T5(T5Sized(size))
		if err := g.Validate(); err != nil {
			t.Fatalf("T5 %s: %v", size, err)
		}
		got := g.Stats().Params
		if !withinFrac(got, want, 0.25) {
			t.Errorf("T5 %s: %d params, want within 25%% of %d", size, got, want)
		}
	}
}

func TestT5DepthScaling(t *testing.T) {
	small := T5(T5Sized("100M")).Stats()
	large := T5(T5Sized("770M")).Stats()
	if large.L <= small.L {
		t.Errorf("deeper T5 should have more layers: %d vs %d", large.L, small.L)
	}
	if large.V <= small.V {
		t.Errorf("deeper T5 should have more nodes: %d vs %d", large.V, small.V)
	}
}

func TestResNetClassifierDominates(t *testing.T) {
	// Paper: at 100K classes the FC layer has 205M params vs a 24M
	// backbone.
	g := ResNet(ResNet50Classes(100000))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var fcParams int64
	for _, n := range g.Nodes {
		if strings.HasPrefix(n.Name, "fc_matmul") {
			for _, w := range n.Weights() {
				fcParams += w.Shape.NumElements()
			}
		}
	}
	if fcParams != 2048*100000 {
		t.Errorf("FC params = %d, want %d", fcParams, 2048*100000)
	}
	total := g.Stats().Params
	backbone := total - fcParams - 100000 // minus fc weight and bias
	if backbone > 30e6 {
		t.Errorf("backbone should stay ~24M params, got %d", backbone)
	}
	if fcParams < 6*backbone {
		t.Errorf("FC (%d) should dominate backbone (%d)", fcParams, backbone)
	}
}

func TestResNetSizedPoints(t *testing.T) {
	cases := map[string]int64{
		"26M": 26e6, "44M": 44e6, "228M": 228e6, "536M": 536e6, "843M": 843e6,
	}
	for size, want := range cases {
		g := ResNet(ResNetSized(size))
		got := g.Stats().Params
		if !withinFrac(got, want, 0.15) {
			t.Errorf("ResNet %s: %d params, want within 15%% of %d", size, got, want)
		}
	}
}

func TestMoEParameterScaling(t *testing.T) {
	cases := map[string]int64{
		"380M": 380e6, "690M": 690e6, "1.3B": 1300e6, "2.4B": 2400e6,
	}
	for size, want := range cases {
		g := MoE(MoESized(size))
		if err := g.Validate(); err != nil {
			t.Fatalf("MoE %s: %v", size, err)
		}
		got := g.Stats().Params
		if !withinFrac(got, want, 0.25) {
			t.Errorf("MoE %s: %d params, want within 25%% of %d", size, got, want)
		}
	}
}

func TestMoEHasExpertWeights(t *testing.T) {
	g := MoE(MoESized("380M"))
	found := false
	for _, n := range g.Nodes {
		for _, w := range n.Weights() {
			if w.Shape.Rank() == 3 && w.Shape[0] == 8 {
				found = true
			}
		}
	}
	if !found {
		t.Error("MoE graph should contain 3-D expert weights with E=8 leading axis")
	}
}

func TestMoEWidthScaling(t *testing.T) {
	// 1.3B → 2.4B scales experts (width) at fixed depth.
	a, b := MoESized("1.3B"), MoESized("2.4B")
	if a.Layers != b.Layers {
		t.Errorf("1.3B and 2.4B should share depth, got %d vs %d", a.Layers, b.Layers)
	}
	if b.Experts <= a.Experts {
		t.Errorf("2.4B should have more experts: %d vs %d", b.Experts, a.Experts)
	}
}

func TestRepeatedLayersShareStructure(t *testing.T) {
	// The key TAPAS observation: repeated layers have identical op
	// sequences. Verify the op-kind signature of every encoder layer of a
	// T5 matches the first one.
	g := T5(T5Sized("200M"))
	sig := map[string]string{} // layer → its op kinds in ID order
	for _, n := range g.Nodes {
		if n.Layer != "" {
			sig[n.Layer] += n.Kind.String() + ";"
		}
	}
	base := sig["enc.0"]
	if base == "" {
		t.Fatal("enc.0 layer missing")
	}
	for l, s := range sig {
		if strings.HasPrefix(l, "enc.") && s != base {
			t.Errorf("layer %s signature differs from enc.0", l)
		}
	}
}

func TestGPTBuilds(t *testing.T) {
	g := GPT(GPTSmall())
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !withinFrac(g.Stats().Params, 125e6, 0.3) {
		t.Errorf("GPT-125M params = %d", g.Stats().Params)
	}
}

func TestUNetBuilds(t *testing.T) {
	g := UNet(UNetSmall())
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Must contain ConvTranspose2D up-path and Concat skip connections.
	var hasUp, hasCat bool
	for _, n := range g.Nodes {
		switch n.Kind {
		case graph.OpConvTranspose2D:
			hasUp = true
		case graph.OpConcat:
			hasCat = true
		}
	}
	if !hasUp || !hasCat {
		t.Errorf("U-Net should have up-convs (%v) and skip concats (%v)", hasUp, hasCat)
	}
}

func TestTwoTowerBuilds(t *testing.T) {
	g := TwoTower(TwoTowerSmall())
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The towers differ in design: user MLP widths != item MLP widths.
	st := g.Stats()
	if st.Params < (2_000_000+5_000_000)*128 {
		t.Errorf("embedding tables should dominate params, got %d", st.Params)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 15 {
		t.Fatalf("registry has %d models, want >= 15 (Table-2 pool)", len(names))
	}
	for _, n := range names {
		g, err := Build(n)
		if err != nil {
			t.Fatalf("Build(%s): %v", n, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("model %s invalid: %v", n, err)
		}
	}
	if _, err := Build("no-such-model"); err == nil {
		t.Error("unknown model should error")
	}
}
