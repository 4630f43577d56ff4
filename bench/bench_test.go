package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json and the program to the
// same workloads and the same metrics. The program prints exactly the
// declared lists — runEndToEnd and newLayerSet both build their output from
// them — so equality here is equality with what the command prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", names, workloadNames)
	}

	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("end_to_end: BENCHMARK.json has\n%v\nthe program\n%v", e2e, endToEndMetrics)
	}

	var layers []metricDef
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(layers, perLayerMetrics) {
		t.Errorf("per_layer: BENCHMARK.json has\n%v\nthe program\n%v", layers, perLayerMetrics)
	}

	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if def, err := parseFlags(nil, io.Discard); err != nil {
		t.Fatal(err)
	} else if def.seconds != b.RunSeconds {
		t.Errorf("run_seconds = %d, but the -seconds default is %d", b.RunSeconds, def.seconds)
	}
}

// TestSmoke runs every workload once at a twentieth of its size, in both the
// plain and the traced mode, with every correctness check on: equal hashes
// across modes, cluster equal to local, balanced ledgers, complete stores and
// streams. It records no metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small training workloads; skipped in -short mode")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			args := []string{"-workload", name, "-smoke", "-tmp", t.TempDir()}
			if err := run(context.Background(), args, io.Discard, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFlagsRejectBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-spans", "x.json"},
		{"stray"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) accepted bad input", args)
		}
	}
	if err := run(context.Background(), []string{"-workload", "nope"}, io.Discard, io.Discard); err == nil {
		t.Error("run accepted an unknown workload")
	}
}
