package experiments

import (
	"os"
	"strings"
	"testing"

	"eole/internal/simsvc"
	"eole/internal/stats"
)

// sharedSvc serves every test in the package, so figures that re-run
// the same (config, workload) pairs — every speedup table re-runs its
// baseline — hit the content-addressed cache instead of re-simulating.
var sharedSvc *simsvc.Service

func TestMain(m *testing.M) {
	var err error
	sharedSvc, err = simsvc.New(simsvc.Options{})
	if err != nil {
		panic(err)
	}
	code := m.Run()
	sharedSvc.Close()
	os.Exit(code)
}

// fastOpts keeps harness tests quick: a representative 6-benchmark
// subset covering ILP-heavy, branchy and memory-bound behaviour.
func fastOpts() Opts {
	return Opts{
		Warmup:    10_000,
		Measure:   30_000,
		Workloads: []string{"namd", "art", "crafty", "gzip", "milc", "hmmer"},
		Service:   sharedSvc,
	}
}

func TestTable3Shape(t *testing.T) {
	tb, err := Table3(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 6 {
		t.Fatalf("rows = %d, want 6", tb.Rows())
	}
	ipc, ok := tb.ColumnByName("IPC")
	if !ok {
		t.Fatal("missing IPC column")
	}
	for i, v := range ipc {
		if v <= 0 || v > 8 {
			t.Errorf("row %d: IPC %v out of range", i, v)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	tb, err := Figure2(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	one, _ := tb.ColumnByName("1_ALU_stage")
	two, _ := tb.ColumnByName("2_ALU_stages")
	for i := range one {
		if one[i] < 0 || one[i] > 0.8 {
			t.Errorf("EE fraction out of range: %v", one[i])
		}
		if two[i] < one[i]-0.01 {
			t.Errorf("2-stage EE (%v) below 1-stage (%v)", two[i], one[i])
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	tb, err := Figure4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	total, _ := tb.ColumnByName("total")
	br, _ := tb.ColumnByName("HighConf_branches")
	vp, _ := tb.ColumnByName("Value_predicted")
	for i := range total {
		if diff := total[i] - (br[i] + vp[i]); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("row %d: split does not sum: %v + %v != %v", i, br[i], vp[i], total[i])
		}
	}
	// art must be near the top, milc near the bottom (paper Fig 4).
	artLE, _ := tb.Value("art", "total")
	milcLE, _ := tb.Value("milc", "total")
	if artLE <= milcLE {
		t.Errorf("art LE (%v) must exceed milc LE (%v)", artLE, milcLE)
	}
}

func TestFigure6NoBigSlowdowns(t *testing.T) {
	tb, err := Figure6(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	col, _ := tb.ColumnByName("Baseline_VP_6_64")
	if stats.Min(col) < 0.93 {
		t.Errorf("VP slowdown beyond noise: min speedup %.3f", stats.Min(col))
	}
	if stats.Geomean(col) < 1.0 {
		t.Errorf("VP geomean %.3f < 1", stats.Geomean(col))
	}
}

func TestFigure7HeadlineShape(t *testing.T) {
	tb, err := Figure7(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	vp4, _ := tb.ColumnByName("Baseline_VP_4_64")
	eole4, _ := tb.ColumnByName("EOLE_4_64")
	eole6, _ := tb.ColumnByName("EOLE_6_64")
	if gm := stats.Geomean(vp4); gm > 0.97 {
		t.Errorf("shrinking issue width costs nothing (gm %.3f); wrong shape", gm)
	}
	if gm := stats.Geomean(eole4); gm < 0.95 {
		t.Errorf("EOLE_4_64 geomean %.3f; must recover the 6-issue baseline", gm)
	}
	if gm := stats.Geomean(eole6); gm < stats.Geomean(vp4) {
		t.Errorf("EOLE_6_64 below the narrow baseline")
	}
}

func TestFigure12Headline(t *testing.T) {
	tb, err := Figure12(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	practical, _ := tb.ColumnByName("EOLE_4_64_4ports_4banks")
	if gm := stats.Geomean(practical); gm < 0.93 {
		t.Errorf("practical EOLE geomean %.3f, want ≈ 1 (Figure 12)", gm)
	}
}

func TestFigure13Modularity(t *testing.T) {
	tb, err := Figure13(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range tb.Columns {
		vals, _ := tb.ColumnByName(col)
		if gm := stats.Geomean(vals); gm < 0.90 {
			t.Errorf("%s geomean %.3f; paper: slowdown under 5%% in all cases", col, gm)
		}
	}
}

func TestTable1Text(t *testing.T) {
	txt := Table1()
	for _, want := range []string{"192-entry ROB", "64-entry unified IQ", "6-issue", "DDR3-1600"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table 1 text missing %q", want)
		}
	}
}

func TestTable2Budgets(t *testing.T) {
	tb := Table2()
	sKB, _ := tb.Value("2D-Stride", "KB")
	vKB, _ := tb.Value("VTAGE", "KB")
	if sKB < 150 || sKB > 350 {
		t.Errorf("2D-Stride = %.1fKB, want ~250", sKB)
	}
	if vKB >= sKB {
		t.Errorf("VTAGE (%.1fKB) must be smaller than 2D-Stride (%.1fKB)", vKB, sKB)
	}
}

func TestSection6Text(t *testing.T) {
	txt := Section6()
	for _, want := range []string{"EOLE_4_64_4ports_4banks", "PRF_area", "prohibitive"} {
		if !strings.Contains(txt, want) {
			t.Errorf("section6 missing %q", want)
		}
	}
}

// TestTableByID: a tabular artefact carries its table, rendered as
// its text, and its chart's reference line; a text-only one has none.
func TestTableByID(t *testing.T) {
	o := Opts{Warmup: 2_000, Measure: 5_000, Workloads: []string{"crafty"}}
	a, err := ByID("figure12", o)
	if err != nil {
		t.Fatal(err)
	}
	tb := a.Table
	if tb == nil || tb.Rows() != 1 || len(tb.Columns) != 3 {
		t.Fatalf("figure12 table shape wrong: %+v", tb)
	}
	if a.Text != tb.Render() || a.RefLine != 1 {
		t.Errorf("figure12: text is not its table's, or reference line %v != 1", a.RefLine)
	}
	if _, err := tb.RenderChart(tb.Columns[0], 1.0, 40); err != nil {
		t.Fatalf("chart render: %v", err)
	}
	if a, err := ByID("table1", o); err != nil || a.Table != nil {
		t.Fatalf("table1 is text-only: table %v, err %v", a.Table, err)
	}
}

func TestByIDAndIDs(t *testing.T) {
	o := Opts{Warmup: 2_000, Measure: 5_000, Workloads: []string{"crafty"}}
	for _, id := range IDs() {
		a, err := ByID(id, o)
		if err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		if a.Text == "" {
			t.Errorf("%s produced empty artefact", id)
		}
	}
	if _, err := ByID("figure99", o); err == nil {
		t.Fatal("unknown artefact must error")
	}
}
