package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	runspec "dpbyz/internal/spec"
)

// smokeScale keeps experiment tests fast while exercising the full path.
func smokeScale() Scale {
	return Scale{Steps: 60, Seeds: 2, DatasetSize: 800, Features: 10}
}

// column returns the cells of t's column headed h, one per row.
func column[T any](t *testing.T, tab Table, h string) []T {
	t.Helper()
	for i, c := range tab.Columns {
		if c.Header != h {
			continue
		}
		out := make([]T, len(tab.Rows))
		for r, row := range tab.Rows {
			out[r] = row[i].(T)
		}
		return out
	}
	t.Fatalf("table %q has no column %q", tab.Title, h)
	return nil
}

// render prints the tables with WriteTables.
func render(t *testing.T, tables ...Table) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteTables(&sb, tables...); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// pick returns sw trimmed to the rows at the given indices.
func pick(sw Sweep, rows ...int) Sweep {
	kept := make([]Row, len(rows))
	for i, r := range rows {
		kept[i] = sw.Rows[r]
	}
	sw.Rows = kept
	return sw
}

// WriteTables pads every cell to its column's width, left-aligning a column
// whose verb starts with "%-" (header included) and right-aligning the
// rest, and prints a title or footer only when it is set.
func TestWriteTables(t *testing.T) {
	cols := []Column{{"name", 6, "%-*s"}, {"x", 5, "%*.2f"}, {"ok", 6, "%*v"}}
	got := render(t,
		Table{Title: "T", Columns: cols, Rows: [][]any{{"a", 1.5, true}}, Footer: "end"},
		Table{Columns: cols, Rows: [][]any{{"bb", -2.0, false}}})
	want := "T\n" +
		"name       x     ok\n" +
		"a       1.50   true\n" +
		"end\n" +
		"name       x     ok\n" +
		"bb     -2.00  false\n"
	if got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}

func TestGrid(t *testing.T) {
	g := grid()
	if len(g) != 6 {
		t.Fatalf("grid has %d conditions", len(g))
	}
	labels := map[string]bool{}
	for _, c := range g {
		if labels[c.Label] {
			t.Errorf("duplicate label %q", c.Label)
		}
		labels[c.Label] = true
	}
	for _, want := range []string{"none+clear", "none+dp", "alie+clear", "alie+dp", "foe+clear", "foe+dp"} {
		if !labels[want] {
			t.Errorf("missing condition %q", want)
		}
	}
}

func TestFigureSpecs(t *testing.T) {
	for _, tc := range []struct {
		sw    Sweep
		batch int
	}{{Figure2(Scale{}), 50}, {Figure3(Scale{}), 10}, {Figure4(Scale{}), 500}, {FigureMLP(Scale{}), 50}} {
		if len(tc.sw.Rows) != len(grid()) || tc.sw.Seeds != PaperSeeds {
			t.Errorf("%s: %d rows at %d seeds, want %d at %d", tc.sw.ID, len(tc.sw.Rows), tc.sw.Seeds, len(grid()), PaperSeeds)
		}
		for _, r := range tc.sw.Rows {
			if r.Spec.BatchSize != tc.batch || r.Spec.Steps != PaperSteps {
				t.Errorf("%s/%s: b=%d T=%d, want b=%d T=%d", tc.sw.ID, r.label(), r.Spec.BatchSize, r.Spec.Steps, tc.batch, PaperSteps)
			}
			if err := r.Spec.Validate(); err != nil {
				t.Errorf("%s/%s: %v", tc.sw.ID, r.label(), err)
			}
		}
	}
	if m := FigureMLP(Scale{}).Rows[0].Spec.Model; m.Name != "mlp" || m.Hidden != 16 {
		t.Errorf("figmlp model = %+v", m)
	}
}

func TestScaleDefaults(t *testing.T) {
	var s Scale
	if s.steps() != PaperSteps || s.seeds() != PaperSeeds {
		t.Errorf("zero scale = %d steps, %d seeds", s.steps(), s.seeds())
	}
	s = Scale{Steps: 10, Seeds: 2, DatasetSize: 100, Features: 5}
	if s.steps() != 10 || s.seeds() != 2 || s.datasetSize() != 100 || s.features() != 5 {
		t.Error("overrides ignored")
	}
}

func TestRunFigureSmoke(t *testing.T) {
	sw := Figure2(smokeScale())
	cells, err := Run(context.Background(), sw, Sched{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.Loss == nil || len(c.Loss.Mean) != 60 {
			t.Errorf("%s: bad loss series", c.Label)
		}
		if c.MinLossMean < 0 {
			t.Errorf("%s: negative loss", c.Label)
		}
		if c.FinalAccMean < 0 || c.FinalAccMean > 1 {
			t.Errorf("%s: accuracy %v out of range", c.Label, c.FinalAccMean)
		}
		if c.Accepted+c.Missed+c.Discarded+c.Credited != 0 {
			t.Errorf("%s: a synchronous row booked a ledger %+v", c.Label, c)
		}
	}
	if got := Cell(cells, "alie+dp"); got == nil {
		t.Error("Cell lookup failed")
	}
	if got := Cell(cells, "nope"); got != nil {
		t.Error("Cell lookup for unknown label returned non-nil")
	}
	// The unattacked clear baseline must converge decently even at smoke
	// scale.
	if base := Cell(cells, "none+clear"); base.FinalAccMean < 0.75 {
		t.Errorf("baseline accuracy %v too low", base.FinalAccMean)
	}
	out := render(t, sw.Table(cells))
	lines := strings.Split(out, "\n")
	if lines[0] != "fig2 (b=50, eps=0.2, steps=60, seeds=2)" || !strings.HasPrefix(lines[5], "alie+dp ") {
		t.Errorf("report missing content:\n%s", out)
	}
	if len(lines) != 2+len(cells)+1 || lines[len(lines)-1] != "" {
		t.Errorf("report is not title, header and one line per cell:\n%s", out)
	}
	if s := Summary(sw, cells); !strings.HasPrefix(s, "fig2: ") {
		t.Errorf("summary = %q", s)
	}
}

// Every phishing-shaped sweep rejects a dataset too small to split 8400/2655
// with the same error: size 1 leaves an empty train set, size 2 a one-point
// one.
func TestRunFigureTooSmallDataset(t *testing.T) {
	ctx := context.Background()
	for _, size := range []int{1, 2} {
		scale := Scale{DatasetSize: size, Steps: 1, Seeds: 1, Features: 2}
		for _, sw := range []Sweep{
			Figure2(scale), EpsilonSweep(scale), HeterogeneitySweep(scale), StalenessSweep(scale), CrossoverSweep(scale),
		} {
			_, err := Run(ctx, sw, Sched{})
			if err == nil || !strings.Contains(err.Error(), "too small") {
				t.Errorf("%s at dataset size %d: error = %v, want \"dataset size %d too small\"", sw.ID, size, err, size)
			}
		}
	}
}

func TestRunTheorem1ShowsLinearDimDependence(t *testing.T) {
	spec := Theorem1Spec{
		Dims:        []int{4, 64},
		Steps:       150,
		Seeds:       2,
		DatasetSize: 1500,
	}
	tab, err := RunTheorem1(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	dims, errDP, errClear := column[int](t, tab, "dim"), column[float64](t, tab, "err-dp"), column[float64](t, tab, "err-clear")
	if len(dims) != 2 {
		t.Fatalf("rows = %d", len(dims))
	}
	// With DP, error must grow markedly with d; without, it must not.
	if errDP[1] <= errDP[0]*4 {
		t.Errorf("DP error did not scale with d: %v -> %v (16x dim)", errDP[0], errDP[1])
	}
	if errClear[1] > errClear[0]*4 && errClear[1] > 1e-4 {
		t.Errorf("clear error scaled with d: %v -> %v", errClear[0], errClear[1])
	}
	// And at every d, DP hurts.
	for i, d := range dims {
		if errDP[i] <= errClear[i] {
			t.Errorf("d=%d: DP error %v not above clear %v", d, errDP[i], errClear[i])
		}
	}
	if !strings.Contains(render(t, tab), "err-dp") {
		t.Error("theorem1 report missing header")
	}
}

func TestRunTable1(t *testing.T) {
	tables, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("tables = %d", len(tables))
	}
	// At ResNet-50 scale every condition must fail with b = 50 and
	// f/n = 5/23.
	resnet := tables[len(tables)-1]
	if resnet.Title != "d = 25600000" {
		t.Fatalf("last table title = %q", resnet.Title)
	}
	rules := column[string](t, resnet, "rule")
	for i, ok := range column[bool](t, resnet, "satisfied") {
		if ok {
			t.Errorf("rule %s satisfied at ResNet-50 scale", rules[i])
		}
	}
	out := render(t, tables...)
	// The header states the (b, f/n) the rows were computed at.
	if want := "Table 1 necessary conditions (b=50, f/n=0.217)\nd = 69\n  rule "; !strings.HasPrefix(out, want) {
		t.Errorf("table1 header: got %q, want %q", out[:min(len(out), len(want))], want)
	}
	if !strings.Contains(out, "\n  krum ") {
		t.Error("table1 report missing rules")
	}
}

func TestRunEpsilonSweep(t *testing.T) {
	sw := pick(EpsilonSweep(smokeScale()), 0, 3)
	if sw.Rows[0].Keys[0] != "0.1" || sw.Rows[1].Keys[0] != "0.9" {
		t.Fatalf("trimmed rows %v, %v; want eps 0.1 and 0.9", sw.Rows[0].Keys, sw.Rows[1].Keys)
	}
	cells, err := Run(context.Background(), sw, Sched{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	// More privacy (smaller eps) must not help the loss.
	if cells[0].MinLossMean < cells[1].MinLossMean*0.5 {
		t.Errorf("eps=0.1 loss %v unexpectedly far below eps=0.9 loss %v",
			cells[0].MinLossMean, cells[1].MinLossMean)
	}
	if out := render(t, sw.Table(cells)); !strings.Contains(out, "epsilon") || strings.Contains(out, "steps-to-min") {
		t.Errorf("sweep report has the wrong columns:\n%s", out)
	}
}

func TestRunVNEmpirical(t *testing.T) {
	tab, err := RunVNEmpirical(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	batches, clear, noisy := column[int](t, tab, "batch"), column[float64](t, tab, "vn-clear"), column[float64](t, tab, "vn-dp")
	if len(batches) != 5 || batches[0] != 10 || batches[4] != 2000 {
		t.Fatalf("batch sizes = %v, want 10 … 2000", batches)
	}
	// The DP-adjusted ratio must dominate the clear ratio and shrink with b.
	for i, b := range batches {
		if noisy[i] <= clear[i] {
			t.Errorf("b=%d: DP ratio %v not above clear %v", b, noisy[i], clear[i])
		}
	}
	if noisy[4] >= noisy[0] {
		t.Errorf("DP ratio did not shrink with batch: %v -> %v", noisy[0], noisy[4])
	}
	// MDA (the most tolerant rule) must fail the condition at b=10.
	if column[bool](t, tab, "mda")[0] {
		t.Error("MDA condition holds at b=10 under DP; should fail")
	}
}

func TestRunFigureMLP(t *testing.T) {
	sw := FigureMLP(Scale{Steps: 40, Seeds: 1, DatasetSize: 600, Features: 8})
	cells, err := Run(context.Background(), sw, Sched{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if len(c.Loss.Mean) != 40 {
			t.Errorf("%s: loss series length %d", c.Label, len(c.Loss.Mean))
		}
	}
}

func TestRunCrossover(t *testing.T) {
	// b = 20 and b = 400, between the grid's batch sizes.
	scale := Scale{Steps: 200, Seeds: 1, DatasetSize: 1500, Features: 12}
	sw := CrossoverSweep(scale)
	sw.Rows = nil
	for _, b := range []int{20, 400} {
		for _, cond := range grid()[:crossoverRegimes] {
			sw.Rows = append(sw.Rows, Row{
				Keys: []string{"b=" + strconv.Itoa(b), cond.Label},
				Spec: paperSpec("crossover", scale, b, PaperEpsilon, cond),
			})
		}
	}
	cells, err := Run(context.Background(), sw, Sched{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Crossover(sw, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].BatchSize != 20 || res.Points[1].BatchSize != 400 {
		t.Fatalf("points = %+v, want b = 20 and 400", res.Points)
	}
	// The combined condition must work at b=400 but not at b=20 on this
	// small task — the paper's antagonism gap in miniature.
	if res.Points[0].CombinedOK {
		t.Error("combined condition unexpectedly works at b=20")
	}
	if res.MinBatchCombined != 400 {
		t.Errorf("combined crossover = %d, want 400", res.MinBatchCombined)
	}
	// Either defence alone already works at the small batch.
	if !res.Points[0].DPOnlyOK || !res.Points[0].AttackOnlyOK {
		t.Error("single defences should work at b=20")
	}
	if out := render(t, res.Table(sw.Title)); !strings.Contains(out, "\ncrossovers: dp-only b>=20, attack-only b>=20, combined b>=400\n") {
		t.Errorf("report missing summary:\n%s", out)
	}
}

func TestCrossoverRejectsBrokenGroups(t *testing.T) {
	sw := CrossoverSweep(smokeScale())
	for name, rows := range map[string][]Row{
		"partial group":   sw.Rows[:6],
		"shifted groups":  sw.Rows[2:10],
		"swapped regimes": {sw.Rows[1], sw.Rows[0], sw.Rows[2], sw.Rows[3]},
		"mixed batch":     {sw.Rows[0], sw.Rows[1], sw.Rows[6], sw.Rows[3]},
	} {
		trimmed := sw
		trimmed.Rows = rows
		if _, err := Crossover(trimmed, make([]CellResult, len(rows))); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestRunRejectsRowsOffTheSharedData(t *testing.T) {
	ctx := context.Background()
	for name, edit := range map[string]func(*Row){
		"data":  func(r *Row) { r.Spec.Data.Features++ },
		"model": func(r *Row) { r.Spec.Model = runspec.ModelSpec{Name: "mlp", Hidden: 4} },
	} {
		sw := pick(Figure2(smokeScale()), 0, 1)
		edit(&sw.Rows[1])
		if _, err := Run(ctx, sw, Sched{}); err == nil || !strings.Contains(err.Error(), "share one dataset") {
			t.Errorf("%s: error = %v, want the shared-dataset rejection", name, err)
		}
	}
}

func TestTheorem1BatchSweepQuadratic(t *testing.T) {
	spec := Theorem1Spec{
		Dims: []int{32}, Steps: 150, Seeds: 3, DatasetSize: 2000,
	}
	tab, err := RunTheorem1BatchSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	batches, errDP := column[int](t, tab, "batch"), column[float64](t, tab, "err-dp")
	if len(batches) != 4 || batches[0] != 5 || batches[2] != 20 {
		t.Fatalf("batch sizes = %v, want 5, 10, 20, 40", batches)
	}
	// 4x the batch: Theorem 1 predicts ~16x less error (d·s² ∝ 1/b²).
	if ratio := errDP[0] / errDP[2]; ratio < 6 {
		t.Errorf("b-sweep ratio = %v, want clearly superlinear (>6)", ratio)
	}
}

func TestTheorem1StepsSweepDecaying(t *testing.T) {
	spec := Theorem1Spec{
		Dims: []int{16}, Seeds: 3, DatasetSize: 2000,
	}
	tab, err := RunTheorem1StepsSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	steps, errDP := column[int](t, tab, "steps"), column[float64](t, tab, "err-dp")
	if len(steps) != 3 || steps[0] != 50 || steps[2] != 800 {
		t.Fatalf("step counts = %v, want 50, 200, 800", steps)
	}
	// 16x the steps with the 1/t schedule: error must drop substantially
	// (Theorem 1's O(1/T)).
	if errDP[2] >= errDP[0]/3 {
		t.Errorf("T-sweep: err(50) = %v, err(800) = %v; want >3x drop", errDP[0], errDP[2])
	}
}
