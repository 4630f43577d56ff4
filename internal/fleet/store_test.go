package fleet

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dpbyz/internal/checkpoint"
	"dpbyz/internal/randx"
	"dpbyz/internal/spec"
)

func TestRunDirLayoutAndEnsure(t *testing.T) {
	root := t.TempDir()
	d := NewStore(root).Dir("run-00000001")
	if err := d.Ensure(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(d.path); err != nil || !fi.IsDir() {
		t.Fatalf("run dir missing after Ensure: %v", err)
	}
	if d.path != filepath.Join(root, "run-00000001") {
		t.Errorf("run dir %q", d.path)
	}
	for name, path := range map[string]string{
		"spec.json":     d.SpecPath(),
		"meta.json":     d.MetaPath(),
		"snapshot.json": d.SnapshotPath(),
		"events.jsonl":  d.EventsPath(),
	} {
		if filepath.Base(path) != name || filepath.Dir(path) != d.path {
			t.Errorf("%s path = %q", name, path)
		}
	}
}

func TestRunDirLoadSnapshot(t *testing.T) {
	d := NewStore(t.TempDir()).Dir("run-00000002")
	if err := d.Ensure(); err != nil {
		t.Fatal(err)
	}
	st, err := d.LoadSnapshot()
	if err != nil || st != nil {
		t.Fatalf("absent snapshot: got (%v, %v), want (nil, nil)", st, err)
	}
	want := &checkpoint.RunState{
		Step:   3,
		Params: []float64{1, 2},
		Workers: []checkpoint.WorkerRunState{
			{Batch: randx.New(1).State(), Noise: randx.New(2).State()},
		},
	}
	if err := checkpoint.SaveRunState(d.SnapshotPath(), want); err != nil {
		t.Fatal(err)
	}
	st, err = d.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 3 || len(st.Params) != 2 {
		t.Fatalf("round-trip snapshot: %+v", st)
	}
	// A damaged snapshot is an error, not "none yet".
	if err := os.WriteFile(d.SnapshotPath(), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := d.LoadSnapshot(); err == nil || st != nil {
		t.Fatalf("damaged snapshot: got (%v, %v), want an error", st, err)
	}
}

// List walks the root's run directories in submission order; a missing
// root is an empty store, and what is not a run directory is skipped.
func TestStoreList(t *testing.T) {
	root := t.TempDir()
	ids, err := NewStore(filepath.Join(root, "missing")).List()
	if err != nil || len(ids) != 0 {
		t.Fatalf("missing root: got (%v, %v)", ids, err)
	}
	store := NewStore(root)
	for _, id := range []spec.RunID{"run-00000002", "run-00000001"} {
		if err := store.Dir(id).Ensure(); err != nil {
			t.Fatal(err)
		}
	}
	// A stray file, even one named like a run, and a directory that is not
	// a run ID are not the store's.
	for _, name := range []string{"store.lock", "run-00000003"} {
		if err := os.WriteFile(filepath.Join(root, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(root, "lost+found"), 0o755); err != nil {
		t.Fatal(err)
	}
	ids, err = store.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []spec.RunID{"run-00000001", "run-00000002"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("List = %v, want %v", ids, want)
	}
}
