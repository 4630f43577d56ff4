package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The default run and the doc comment's ResNet-50 run print, byte for byte,
// what the command printed before its table went through
// experiments.WriteTables. The thresholds are float results, so the files
// are pinned to GOARCH=amd64, like dpbyz-experiments' smoke golden.
func TestOutputGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned to GOARCH=amd64; running on %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"resnet50.golden", []string{"-n", "23", "-f", "5", "-batch", "128", "-dim", "25600000"}},
	} {
		var stdout bytes.Buffer
		if err := run(tc.args, &stdout); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v: stdout differs from testdata/%s:\n%s", tc.args, tc.golden, stdout.String())
		}
	}
}
