package main

import "fmt"

// metric is one named value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (s metricSet) set(name string, v float64, unit string) { s[name] = metric{Value: v, Unit: unit} }

// metricDef declares a metric the way BENCHMARK.json does; bench_test.go
// holds the two lists equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEndMetrics are what a user of the system pays per training round,
// reported for every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_round", "us", "lower", 0.25},
	{"allocs_per_round", "count", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.12},
}

// perLayerMetrics are the traced mode's numbers, one group per package. Every
// workload prints every name; a layer a workload does not exercise reads 0
// (README.md has the table of which workload fills which).
var perLayerMetrics = []metricDef{
	{Name: "model.grad_us_per_round", Unit: "us", Better: "lower"},
	{Name: "model.grad_calls_per_round", Unit: "count", Better: "lower"},
	{Name: "model.loss_us_per_round", Unit: "us", Better: "lower"},
	{Name: "dp.perturb_us_per_round", Unit: "us", Better: "lower"},
	{Name: "randx.normal_ns_per_variate", Unit: "ns", Better: "lower"},
	{Name: "attack.craft_us_per_round", Unit: "us", Better: "lower"},
	{Name: "gar.aggregate_us_per_round", Unit: "us", Better: "lower"},
	{Name: "gar.aggregate_share", Unit: "%", Better: "lower"},
	{Name: "gar.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "vecmath.pairwise_us_per_call", Unit: "us", Better: "lower"},
	{Name: "vecmath.sortedcol_us_per_call", Unit: "us", Better: "lower"},
	{Name: "simulate.self_us_per_round", Unit: "us", Better: "lower"},
	{Name: "cluster.bytes_up_per_round", Unit: "count", Better: "lower"},
	{Name: "cluster.bytes_down_per_round", Unit: "count", Better: "lower"},
	{Name: "cluster.frames_per_round", Unit: "count", Better: "lower"},
	{Name: "cluster.write_us_per_round", Unit: "us", Better: "lower"},
	{Name: "cluster.collect_wait_us_per_round", Unit: "us", Better: "lower"},
	{Name: "cluster.server_self_us_per_round", Unit: "us", Better: "lower"},
	{Name: "cluster.round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.round_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "cluster.run_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.missed_slots", Unit: "count", Better: "lower"},
	{Name: "cluster.discarded_frames", Unit: "count", Better: "lower"},
	{Name: "membership.epochs_per_run", Unit: "count", Better: "lower"},
	{Name: "membership.advance_us_per_call", Unit: "us", Better: "lower"},
	{Name: "spec.parse_us_per_spec", Unit: "us", Better: "lower"},
	{Name: "spec.run_overhead_ms_local", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.save_us_per_call", Unit: "us", Better: "lower"},
	{Name: "checkpoint.bytes_per_snapshot", Unit: "count", Better: "lower"},
	{Name: "checkpoint.snapshots_per_run", Unit: "count", Better: "lower"},
	{Name: "experiments.pool_dispatch_us", Unit: "us", Better: "lower"},
	{Name: "fleet.submit_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "fleet.store_files_per_run", Unit: "count", Better: "lower"},
	{Name: "fleet.store_bytes_per_run", Unit: "count", Better: "lower"},
	{Name: "fleet.eventlog_append_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "fleet.eventlog_flush_us_per_call", Unit: "us", Better: "lower"},
	{Name: "fleet.savemeta_us_per_call", Unit: "us", Better: "lower"},
	{Name: "fleet.stream_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fleet.stream_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.status_us_per_call", Unit: "us", Better: "lower"},
	{Name: "fleet.single_run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.runs_failed", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// newLayerSet returns a set holding every per-layer metric at 0.
func newLayerSet() metricSet {
	s := make(metricSet, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		s.set(d.Name, 0, d.Unit)
	}
	return s
}

// layer stores the value of a declared per-layer metric. An undeclared name
// is a bug in the benchmark, so it panics.
func (s metricSet) layer(name string, v float64) {
	m, ok := s[name]
	if !ok {
		panic(fmt.Sprintf("bench: per-layer metric %q is not declared in perLayerMetrics", name))
	}
	m.Value = v
	s[name] = m
}
