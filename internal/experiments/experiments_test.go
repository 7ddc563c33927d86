package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// update regenerates the quick-mode golden:
//
//	go test ./internal/experiments -run TestQuickGolden -update
var update = flag.Bool("update", false, "rewrite testdata/quick.golden")

// quickTables holds each generator's quick-mode table, run once per test
// binary and shared by the golden and the claim tests.
var quickTables = map[string]*Table{}

// quickTable returns the quick-mode table of one generator.
func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	if tab, ok := quickTables[id]; ok {
		return tab
	}
	g, ok := Find(id)
	if !ok {
		t.Fatalf("generator %s missing", id)
	}
	tab, err := g.Run(context.Background(), Config{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	quickTables[id] = tab
	return tab
}

// column returns the index of the named column.
func column(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c.Name == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, tab.Columns)
	return -1
}

// rowsNamed returns the rows whose first cell reads name.
func rowsNamed(tab *Table, name string) []Row {
	var out []Row
	for _, r := range tab.Rows {
		if r.Cells[0].Text == name {
			out = append(out, r)
		}
	}
	return out
}

// untimed copies tab with every Timing cell printed as "~".
func untimed(tab *Table) *Table {
	out := *tab
	out.Rows = make([]Row, len(tab.Rows))
	for i, r := range tab.Rows {
		cells := append([]Cell(nil), r.Cells...)
		for j := range cells {
			if cells[j].Timing {
				cells[j] = Cell{Text: "~"}
			}
		}
		out.Rows[i] = Row{Section: r.Section, Cells: cells}
	}
	return &out
}

// TestQuickGolden pins every cell of the nine quick tables that does not
// depend on the wall clock, so a cost-model or planner change that moves
// a figure shows in review.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a slowed run (the race detector) can push Alpa past its 5 s quick budget, which marks its cells Timing")
	}
	var b strings.Builder
	for _, g := range All() {
		b.WriteString("==== " + g.ID + " ====\n")
		untimed(quickTable(t, g.ID)).Print(&b)
	}
	got := b.String()
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("quick tables moved at line %d (an intended change needs -update):\n got: %q\nwant: %q", i+1, g, w)
		}
	}
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
	tab := quickTable(t, "fig1")
	column(t, tab, "TFLOPS/GPU")
	sc := column(t, tab, "system")
	for _, sys := range []string{"TAPAS", "Alpa"} {
		found := false
		for _, r := range tab.Rows {
			found = found || r.Cells[sc].Text == sys
		}
		if !found {
			t.Errorf("fig1 has no %s row", sys)
		}
	}
}

// TestFigure7TAPASMatchesOrBeatsEveryBaseline: the throughput claim of
// Figures 7 and 1. TAPAS never runs out of memory, and on every model its
// simulated TFLOPS/GPU is at least that of every baseline that fits (ties
// are exact). An Alpa cell its time budget cut is timing-dependent and
// skipped.
func TestFigure7TAPASMatchesOrBeatsEveryBaseline(t *testing.T) {
	fig7 := quickTable(t, "fig7")
	tc := column(t, fig7, "TAPAS")
	for _, r := range fig7.Rows {
		tapas := r.Cells[tc]
		if tapas.Text == oomMark {
			t.Fatalf("fig7 %s: TAPAS plan is OOM", r.Cells[0].Text)
		}
		for _, base := range []string{"DP", "DeepSpeed", "Megatron", "Alpa"} {
			c := r.Cells[column(t, fig7, base)]
			if c.Text == oomMark || c.Text == "-" || c.Timing {
				continue
			}
			if tapas.V < c.V {
				t.Errorf("fig7 %s: TAPAS %v TFLOPS/GPU below %s's %v", r.Cells[0].Text, tapas.V, base, c.V)
			}
		}
	}

	fig1 := quickTable(t, "fig1")
	sc, fc := column(t, fig1, "system"), column(t, fig1, "TFLOPS/GPU")
	for i := 0; i+1 < len(fig1.Rows); i += 2 {
		tapas, alpa := fig1.Rows[i].Cells, fig1.Rows[i+1].Cells
		if tapas[sc].Text != "TAPAS" || alpa[sc].Text != "Alpa" || tapas[0].Text != alpa[0].Text {
			t.Fatalf("fig1 rows %d–%d are not one model's TAPAS and Alpa rows", i, i+1)
		}
		if tapas[fc].Text == oomMark {
			t.Fatalf("fig1 %s: TAPAS plan is OOM", tapas[0].Text)
		}
		if alpa[fc].Text != oomMark && !alpa[fc].Timing && tapas[fc].V < alpa[fc].V {
			t.Errorf("fig1 %s: TAPAS %v TFLOPS/GPU below Alpa's %v", tapas[0].Text, tapas[fc].V, alpa[fc].V)
		}
	}
}

func TestTable1Output(t *testing.T) {
	tab := quickTable(t, "tab1")
	heading := strings.Join(tab.Heading, "\n")
	for _, want := range []string{"FlexFlow", "Alpa", "TAPAS"} {
		if !strings.Contains(heading, "\n"+want+" ") {
			t.Errorf("tab1 heading has no %s complexity row", want)
		}
	}
	cc, vc := column(t, tab, "classes"), column(t, tab, "V")
	for _, r := range tab.Rows {
		if c, v := r.Cells[cc].V, r.Cells[vc].V; c < 1 || c > v {
			t.Errorf("tab1 %s: %v classes for %v GraphNodes", r.Cells[0].Text, c, v)
		}
	}
}

// TestFigure5CommShareRisesAt16Workers: every plan's exposed
// communication share of the simulated iteration rises from 8 to 16
// workers, where the inter-node link enters. At 16 workers
// communication outweighs compute for Megatron alone.
func TestFigure5CommShareRisesAt16Workers(t *testing.T) {
	tab := quickTable(t, "fig5")
	compute, comm, iter := column(t, tab, "compute"), column(t, tab, "comm"), column(t, tab, "iter")
	share := map[string]map[string]float64{"8w": {}, "16w": {}}
	for _, r := range tab.Rows {
		if share[r.Section] == nil {
			t.Fatalf("fig5 row %s in unexpected section %q", r.Cells[0].Text, r.Section)
		}
		share[r.Section][r.Cells[0].Text] = r.Cells[comm].V / r.Cells[iter].V
	}
	if len(share["8w"]) != 4 || len(share["16w"]) != 4 {
		t.Fatalf("fig5 wants four plans at 8 and 16 workers, got %v", share)
	}
	for plan, s8 := range share["8w"] {
		if s16 := share["16w"][plan]; s16 <= s8 {
			t.Errorf("fig5 %s: comm share %.3f at 16w, not above %.3f at 8w", plan, s16, s8)
		}
	}
	for _, r := range tab.Rows {
		plan, c, x := r.Cells[0].Text, r.Cells[comm].V, r.Cells[compute].V
		if r.Section == "16w" && (c > x) != (plan == "Megatron") {
			t.Errorf("fig5 %s at 16w: comm %v against compute %v", plan, c, x)
		}
	}
}

func TestFigure6ReportsSpeedups(t *testing.T) {
	tab := quickTable(t, "fig6")
	column(t, tab, "speedup")
	for _, fam := range []string{"ResNet", "T5", "GShard-MoE"} {
		found := false
		for _, r := range tab.Rows {
			found = found || r.Section == fam
		}
		if !found {
			t.Errorf("fig6 missing family %s", fam)
		}
	}
}

// TestFigure6TAPASExaminesLessThanAlpa: the counted search work behind
// Figure 6's speedups. TAPAS examines fewer complete assignments than
// the Alpa-like search on every model, and within each family the ratio
// at the largest size is at least the ratio at the smallest. (It need not
// widen step by step: every ResNet width folds to the same graph.) A row
// whose Alpa search hit its time budget counts only a lower bound and is
// skipped.
func TestFigure6TAPASExaminesLessThanAlpa(t *testing.T) {
	tab := quickTable(t, "fig6")
	ac, tc := column(t, tab, "Alpa-examined"), column(t, tab, "TAPAS-examined")
	ratios := map[string][]float64{}
	for _, r := range tab.Rows {
		alpa, tapas := r.Cells[ac], r.Cells[tc]
		if alpa.Timing {
			continue
		}
		if tapas.V >= alpa.V {
			t.Errorf("fig6 %s: TAPAS examined %v, Alpa %v", r.Cells[0].Text, tapas.V, alpa.V)
		}
		ratios[r.Section] = append(ratios[r.Section], alpa.V/tapas.V)
	}
	for fam, rs := range ratios {
		if len(rs) > 1 && rs[len(rs)-1] < rs[0] {
			t.Errorf("fig6 %s: Alpa/TAPAS examined ratio %.1f at the largest size, below %.1f at the smallest", fam, rs[len(rs)-1], rs[0])
		}
	}
}

func TestFigure7CoversFrameworks(t *testing.T) {
	tab := quickTable(t, "fig7")
	for _, want := range []string{"DP", "DeepSpeed", "Megatron", "Alpa", "TAPAS"} {
		column(t, tab, want)
	}
}

// TestFigure8WeakScaling: TAPAS-GP's simulated iteration time is at most
// data parallelism's at every GPU count. TAPAS-ES runs under a wall-clock
// budget, so nothing is asserted on it.
func TestFigure8WeakScaling(t *testing.T) {
	tab := quickTable(t, "fig8")
	column(t, tab, "TAPAS-ES")
	dc, gc := column(t, tab, "DP"), column(t, tab, "TAPAS-GP")
	for _, r := range tab.Rows {
		dp, gp := r.Cells[dc], r.Cells[gc]
		if gp.Text == oomMark {
			t.Fatalf("fig8 %s at %s GPUs: TAPAS-GP plan is OOM", r.Cells[0].Text, r.Cells[1].Text)
		}
		if dp.Text != oomMark && gp.V > dp.V {
			t.Errorf("fig8 %s at %s GPUs: TAPAS-GP %vs above DP's %vs", r.Cells[0].Text, r.Cells[1].Text, gp.V, dp.V)
		}
	}
}

func TestFigure9ShowsKnownPlans(t *testing.T) {
	tab := quickTable(t, "fig9")
	rows := rowsNamed(tab, "Megatron")
	if len(rows) != 1 {
		t.Fatalf("fig9 has %d Megatron rows", len(rows))
	}
	// Megatron's row must be the paper's drawing: C C C R | C R.
	want := []string{"Megatron", "C", "C", "C", "R", "|", "C", "R", ""}
	var got []string
	for _, c := range rows[0].Cells {
		got = append(got, c.Text)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Megatron row = %q, want %q", got, want)
	}
}

// TestFigure9IsDeterministic: the full Figure 9 draws one sharded layer
// of the memory-constrained t5-1.4B plan and one mark per role. Both are
// chosen by the first node in GraphNode.ID order, so repeated runs must
// return the same table; a walk in map order named a different layer
// nearly every run.
func TestFigure9IsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("searches t5-1.4B three times")
	}
	g, ok := Find("fig9")
	if !ok {
		t.Fatal("generator fig9 missing")
	}
	var first *Table
	for i := 0; i < 3; i++ {
		tab, err := g.Run(context.Background(), Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = tab
		} else if !reflect.DeepEqual(tab, first) {
			t.Fatalf("run %d differs from run 0:\n%v\nvs\n%v", i, tab.Rows, first.Rows)
		}
	}
}

// TestFigure10CountsClassesPerMinSize: Figure 10 is not reproduced.
// MinSize only filters the patterns Mine emits and prunes no growth, so
// the class counts do not drop as it rises (the golden pins them). What
// the table does show: one row per swept minSize in each model's section,
// each with at least one class.
func TestFigure10CountsClassesPerMinSize(t *testing.T) {
	tab := quickTable(t, "fig10")
	sc, cc := column(t, tab, "minSize"), column(t, tab, "#subgraphs")
	sizes := map[string][]float64{}
	for _, r := range tab.Rows {
		sizes[r.Section] = append(sizes[r.Section], r.Cells[sc].V)
		if r.Cells[cc].V < 1 {
			t.Errorf("fig10 %s minSize %v: no classes", r.Section, r.Cells[sc].V)
		}
	}
	want := []float64{1, 4, 16, 64}
	if len(sizes) != 2 {
		t.Fatalf("fig10 has %d model sections, want 2", len(sizes))
	}
	for sec, got := range sizes {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fig10 %s swept minSize %v, want %v", sec, got, want)
		}
	}
}

func TestTable2TrendImproves(t *testing.T) {
	tab := quickTable(t, "tab2")
	column(t, tab, "Acc@1")
	mc := column(t, tab, "MRR")
	base, full := rowsNamed(tab, "Baseline"), rowsNamed(tab, "+CF+GO+EC")
	if len(base) != 1 || len(full) != 1 {
		t.Fatalf("tab2 has %d Baseline and %d +CF+GO+EC rows", len(base), len(full))
	}
	// The full model ranks at least as well as the baseline — the paper's
	// trend.
	if b, f := base[0].Cells[mc].V, full[0].Cells[mc].V; f < b {
		t.Errorf("full model MRR (%v) should not be below baseline (%v)", f, b)
	}
}
