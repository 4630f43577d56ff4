package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/smoke_all.golden from the current output")

// The reproduction's own golden: the full stdout of
// `dpbyz-experiments -exp all -smoke -progress=false` — every table the
// smoke pass prints — must not move, at the serial scheduler width and at
// the default one. The file was generated at commit 24cc113, before the
// sweep drivers were rebuilt on one grid; regenerate it (-update) only for a
// change that means to move the paper's numbers. Float trajectories are
// per-architecture (the compiler fuses multiply-adds outside amd64), so the
// golden is pinned to GOARCH=amd64.
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
