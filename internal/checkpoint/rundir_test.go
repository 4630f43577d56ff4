package checkpoint

import (
	"os"
	"path/filepath"
	"testing"

	"dpbyz/internal/randx"
)

func TestRunDirLayoutAndEnsure(t *testing.T) {
	root := t.TempDir()
	d := NewRunDir(root, "run-00000001")
	if err := d.Ensure(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(d.path); err != nil {
		t.Fatalf("run dir missing after Ensure: %v", err)
	}
	for name, path := range map[string]string{
		RunSpecFile:     d.SpecPath(),
		RunMetaFile:     d.MetaPath(),
		RunSnapshotFile: d.SnapshotPath(),
		RunEventsFile:   d.EventsPath(),
	} {
		if filepath.Base(path) != name || filepath.Dir(path) != d.path {
			t.Errorf("%s path = %q", name, path)
		}
	}
}

func TestRunDirLoadSnapshot(t *testing.T) {
	d := NewRunDir(t.TempDir(), "run-00000002")
	if err := d.Ensure(); err != nil {
		t.Fatal(err)
	}
	st, err := d.LoadSnapshot()
	if err != nil || st != nil {
		t.Fatalf("absent snapshot: got (%v, %v), want (nil, nil)", st, err)
	}
	want := &RunState{
		Step:   3,
		Params: []float64{1, 2},
		Workers: []WorkerRunState{
			{Batch: randx.New(1).State(), Noise: randx.New(2).State()},
		},
	}
	if err := SaveRunState(d.SnapshotPath(), want); err != nil {
		t.Fatal(err)
	}
	st, err = d.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 3 || len(st.Params) != 2 {
		t.Fatalf("round-trip snapshot: %+v", st)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.json")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "v2" {
		t.Fatalf("content %q, want last write", b)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind")
	}
}

func TestListRunDirs(t *testing.T) {
	root := t.TempDir()
	ids, err := ListRunDirs(filepath.Join(root, "missing"))
	if err != nil || ids != nil {
		t.Fatalf("missing root: got (%v, %v)", ids, err)
	}
	for _, id := range []string{"run-00000002", "run-00000001"} {
		if err := NewRunDir(root, id).Ensure(); err != nil {
			t.Fatal(err)
		}
	}
	// A stray file in the root must not list as a run.
	if err := os.WriteFile(filepath.Join(root, "store.lock"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err = ListRunDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "run-00000001" || ids[1] != "run-00000002" {
		t.Fatalf("ListRunDirs = %v, want the two runs in lexical order", ids)
	}
}
