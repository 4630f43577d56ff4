package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/smoke_all.golden from the current output")

// The reproduction's own golden: the full stdout of
// `dpbyz-experiments -exp all -smoke -progress=false` — every table the
// smoke pass prints — must not move, at the serial scheduler width and at
// the default one. The file was generated at commit 24cc113, before the
// sweeps were rebuilt on one grid; its one later edit is the blank line
// after the ε sweep, which every table now ends with. Regenerate it
// (-update) only for a change that means to move the paper's numbers.
// Float trajectories are per-architecture (the compiler fuses multiply-adds
// outside amd64), so the golden is pinned to GOARCH=amd64. Within amd64 it
// holds on CPUs with AVX and FMA only: the models' sigmoid calls math.Exp,
// whose amd64 body takes an FMA branch there (math/exp_amd64.go, useFMA)
// and rounds differently without it (ROADMAP rule (iv)).
func TestSmokeAllGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden is pinned to GOARCH=amd64 (FMA fusion makes float results per-architecture); running on %s", runtime.GOARCH)
	}
	golden := filepath.Join("testdata", "smoke_all.golden")
	for _, tc := range []struct {
		name  string
		width []string
	}{
		{"default-width", nil},
		{"parallel-1", []string{"-parallel", "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-exp", "all", "-smoke", "-progress=false"}, tc.width...)
			var stdout bytes.Buffer
			if err := run(args, &stdout, io.Discard); err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s (%d bytes, want %d); diff the output of\n\tgo run ./cmd/dpbyz-experiments %v\nagainst the file",
					golden, stdout.Len(), len(want), args)
			}
		})
	}
}

// An -exp list is checked name by name: one misspelt name beside a known one
// is an error that names it, and nothing runs.
func TestUnknownExperimentNamed(t *testing.T) {
	for _, tc := range []struct{ exp, bad string }{
		{"tabel1", "tabel1"},
		{"table1,tabel1", "tabel1"},
		{"tabel1,table1", "tabel1"},
		{"table1,", ""},
	} {
		var stdout bytes.Buffer
		err := run([]string{"-exp", tc.exp}, &stdout, io.Discard)
		if want := fmt.Sprintf("unknown experiment %q", tc.bad); err == nil || err.Error() != want {
			t.Errorf("-exp %s: error = %v, want %s", tc.exp, err, want)
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %s: printed %d bytes before failing", tc.exp, stdout.Len())
		}
	}
}

// The crossover honours -parallel and -progress like every other sweep: one
// progress line per (batch, regime, seed) cell.
func TestCrossoverReportsProgress(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-exp", "crossover", "-smoke", "-parallel", "1", "-steps", "5"}, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	// 6 batch sizes × 4 regimes × 2 smoke seeds.
	const cells = 48
	for k := 1; k <= cells; k++ {
		if want := fmt.Sprintf("  crossover: %d/%d cells (", k, cells); !strings.Contains(stderr.String(), want) {
			t.Fatalf("no progress line %q in stderr:\n%s", want, stderr.String())
		}
	}
	if n := strings.Count(stderr.String(), " cells ("); n != cells {
		t.Errorf("%d progress lines, want %d", n, cells)
	}
}

// -steps and -seeds reach Theorem 1's harness: a shorter run moves the
// d sweep's numbers, and so does a different seed count.
func TestTheorem1HonoursStepsAndSeeds(t *testing.T) {
	dSweep := func(extra ...string) string {
		var stdout bytes.Buffer
		if err := run(append([]string{"-exp", "thm1", "-smoke"}, extra...), &stdout, io.Discard); err != nil {
			t.Fatal(err)
		}
		// The d sweep is the first table: title, header and three rows.
		return strings.Join(strings.SplitN(stdout.String(), "\n", 6)[:5], "\n")
	}
	smoke := dSweep()
	for _, flags := range [][]string{{"-steps", "5"}, {"-seeds", "1"}} {
		if got := dSweep(flags...); got == smoke {
			t.Errorf("%v: d sweep unchanged:\n%s", flags, got)
		}
	}
}
