package spec

import (
	"context"
	"testing"
	"time"
)

// TestClusterByzantineWorkersShareOneAdversary runs f = 4 in-process
// Byzantine workers that share one adversary, and that adversary shares the
// server's rule: the GAR-aware ipm line-searches and observes by aggregating
// with the same exact krum the server aggregates with, while the other
// workers wait on the adversary's round. Wide gradients make the calls
// overlap; run under -race (CI does, with -count=10) a rule that keeps state
// between calls or an unguarded round shows as a data race. The run is a
// fixed, synchronous cohort, so it must end on the local backend's bits.
func TestClusterByzantineWorkersShareOneAdversary(t *testing.T) {
	s := scenario()
	s.Name = "shared-adversary"
	s.GAR = GARSpec{Name: "krum", N: 13, F: 4}
	s.Data = DataSpec{N: 400, Features: 4000}
	s.Attack = &AttackSpec{Name: "ipm"}
	s.Steps = 4
	s.BatchSize = 10
	s.AccuracyEvery = 0
	ctx := context.Background()
	res, err := (&ClusterBackend{}).Run(ctx, s, WithRoundTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	local, err := (&LocalBackend{}).Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if pinOf(res).params != pinOf(local).params {
		t.Fatal("cluster and local final params differ")
	}
}
