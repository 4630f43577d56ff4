package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// The heterogeneity sweep inherits the scheduler determinism contract: the
// same grid must come out BIT-IDENTICAL at every Workers setting.
func TestHeterogeneitySweepSchedulerBitIdentical(t *testing.T) {
	// β = 0.3 and 10 for both rules.
	sw := pick(HeterogeneitySweep(schedScale()), 1, 3, 5, 7)
	run := func(workers int) []CellResult {
		cells, err := Run(context.Background(), sw, Sched{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return cells
	}
	if serial, par := run(1), run(4); !reflect.DeepEqual(serial, par) {
		t.Fatal("heterogeneity sweep differs between serial and parallel scheduling")
	}
}

// The sweep's rows cover every (gar, beta) pair, rule-major, and aggregate
// real trajectories (finite losses, accuracy measured).
func TestHeterogeneitySweepGrid(t *testing.T) {
	sw := HeterogeneitySweep(schedScale())
	var want [][]string
	for _, g := range []string{"mda", "trimmedmean"} {
		for _, b := range []string{"0.1", "0.3", "1", "10"} {
			want = append(want, []string{g, b})
		}
	}
	if len(sw.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(sw.Rows), len(want))
	}
	for i, r := range sw.Rows {
		if !reflect.DeepEqual(r.Keys, want[i]) || r.Spec.GAR.Name != want[i][0] {
			t.Errorf("row %d keys %v on rule %q, want %v", i, r.Keys, r.Spec.GAR.Name, want[i])
		}
	}
	// β = 0.3 and 1 for both rules.
	sw = pick(sw, 1, 2, 5, 6)
	cells, err := Run(context.Background(), sw, Sched{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c.Label != sw.Rows[i].label() {
			t.Errorf("cell %d is %q, want %q", i, c.Label, sw.Rows[i].label())
		}
		if c.MinLossMean <= 0 || c.MinLossMean > 10 {
			t.Errorf("cell %s min loss %v implausible", c.Label, c.MinLossMean)
		}
		if c.FinalAccMean < 0 || c.FinalAccMean > 1 {
			t.Errorf("cell %s accuracy %v outside [0, 1]", c.Label, c.FinalAccMean)
		}
	}
}

// Every heterogeneity row is a plain serializable Spec carrying the
// Dirichlet partition, so any cell can be replayed on any backend.
func TestHeteroCellSpecIsPortable(t *testing.T) {
	for _, r := range HeterogeneitySweep(schedScale()).Rows {
		s := r.Spec
		s.Seed = 1
		if err := s.Validate(); err != nil {
			t.Fatalf("hetsweep cell spec %s invalid: %v", s.Name, err)
		}
		if s.Partition == nil || s.Partition.Name != "dirichlet" || s.Partition.Beta <= 0 {
			t.Errorf("cell partition %+v", s.Partition)
		}
		if s.Attack == nil || s.Attack.Name != "alie" || s.Mechanism == nil {
			t.Errorf("cell attack %+v, mechanism %+v", s.Attack, s.Mechanism)
		}
		b, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"partition"`) {
			t.Error("serialized cell spec lost the partition field")
		}
	}
}
