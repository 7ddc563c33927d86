package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

// runQuick executes a generator in quick mode and returns its output.
func runQuick(t *testing.T, id string) string {
	t.Helper()
	g, ok := Find(id)
	if !ok {
		t.Fatalf("generator %s missing", id)
	}
	var sb strings.Builder
	if err := g.Run(context.Background(), &sb, Config{Quick: true}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return sb.String()
}

func TestAllGeneratorsRegistered(t *testing.T) {
	want := []string{"fig1", "tab1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "tab2"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("have %d generators, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("generator %d = %s, want %s", i, got[i].ID, id)
		}
	}
	if _, ok := Find("nothing"); ok {
		t.Error("Find should miss unknown ids")
	}
}

func TestFigure1Output(t *testing.T) {
	out := runQuick(t, "fig1")
	for _, want := range []string{"TAPAS", "Alpa", "TFLOPS"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Output(t *testing.T) {
	out := runQuick(t, "tab1")
	for _, want := range []string{"FlexFlow", "Alpa", "TAPAS", "classes"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab1 output missing %q", want)
		}
	}
}

func TestFigure5CommDominatesAt16Workers(t *testing.T) {
	out := runQuick(t, "fig5")
	if !strings.Contains(out, "-- 8w --") || !strings.Contains(out, "-- 16w --") {
		t.Fatalf("fig5 missing worker sections:\n%s", out)
	}
}

func TestFigure6ReportsSpeedups(t *testing.T) {
	out := runQuick(t, "fig6")
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "x") {
		t.Fatalf("fig6 missing speedup column:\n%s", out)
	}
	for _, fam := range []string{"ResNet", "T5", "GShard-MoE"} {
		if !strings.Contains(out, fam) {
			t.Errorf("fig6 missing family %s", fam)
		}
	}
}

func TestFigure7CoversFrameworks(t *testing.T) {
	out := runQuick(t, "fig7")
	for _, want := range []string{"DP", "DeepSpeed", "Megatron", "Alpa", "TAPAS"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 missing framework %s", want)
		}
	}
}

func TestFigure8WeakScaling(t *testing.T) {
	out := runQuick(t, "fig8")
	if !strings.Contains(out, "TAPAS-ES") || !strings.Contains(out, "TAPAS-GP") {
		t.Fatalf("fig8 missing ES/GP columns:\n%s", out)
	}
}

func TestFigure9ShowsKnownPlans(t *testing.T) {
	out := runQuick(t, "fig9")
	// Megatron's row must be the paper's drawing: C C C R | C R.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Megatron") {
			f := strings.Fields(line)
			want := []string{"Megatron", "C", "C", "C", "R", "|", "C", "R"}
			if len(f) != len(want) {
				t.Fatalf("Megatron row %q", line)
			}
			for i := range want {
				if f[i] != want[i] {
					t.Errorf("Megatron row field %d = %s, want %s (%q)", i, f[i], want[i], line)
				}
			}
			return
		}
	}
	t.Fatalf("no Megatron row in:\n%s", out)
}

// TestFigure9IsDeterministic: the full Figure 9 draws one sharded layer
// of the memory-constrained t5-1.4B plan and one mark per role. Both are
// chosen by the first node in GraphNode.ID order, so repeated runs must
// print the same figure; a walk in map order named a different layer
// nearly every run.
func TestFigure9IsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("searches t5-1.4B three times")
	}
	g, ok := Find("fig9")
	if !ok {
		t.Fatal("generator fig9 missing")
	}
	var first string
	for i := 0; i < 3; i++ {
		var sb strings.Builder
		if err := g.Run(context.Background(), &sb, Config{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i, sb.String(), first)
		}
	}
}

func TestFigure10SubgraphCountsDrop(t *testing.T) {
	out := runQuick(t, "fig10")
	if !strings.Contains(out, "#subgraphs") {
		t.Fatalf("fig10 missing counts:\n%s", out)
	}
}

func TestTable2TrendImproves(t *testing.T) {
	out := runQuick(t, "tab2")
	if !strings.Contains(out, "Acc@1") || !strings.Contains(out, "MRR") {
		t.Fatalf("tab2 missing metrics:\n%s", out)
	}
	// Parse the MRR column and check the full model is at least as good
	// as the baseline — the paper's trend.
	var baseMRR, fullMRR float64
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == "Baseline" {
			baseMRR = atof(t, f[3])
		}
		if len(f) >= 4 && f[0] == "+CF+GO+EC" {
			fullMRR = atof(t, f[3])
		}
	}
	if fullMRR == 0 || baseMRR == 0 {
		t.Fatalf("could not parse MRR rows:\n%s", out)
	}
	if fullMRR < baseMRR {
		t.Errorf("full model MRR (%v) should not be below baseline (%v)", fullMRR, baseMRR)
	}
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmtSscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
