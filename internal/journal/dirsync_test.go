package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// hookDirSyncs routes every directory fsync through a recorder for the
// rest of the test: it returns fail (nil lets the sync succeed) and the
// list of directories synced so far. File syncs still reach the disk.
func hookDirSyncs(t *testing.T, fail error) *[]string {
	t.Helper()
	var dirs []string
	orig := fsync
	t.Cleanup(func() { fsync = orig })
	fsync = func(f *os.File) error {
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return orig(f)
		}
		dirs = append(dirs, f.Name())
		return fail
	}
	return &dirs
}

// A new journal, a new replica file and a promoted journal each get a
// directory entry that must survive a power loss with their records, so
// each fsyncs its directory. Opening an existing file syncs it again, in
// case the Open that created it failed before its sync.
func TestNewFilesSyncTheirDirectory(t *testing.T) {
	dir := t.TempDir()
	synced := hookDirSyncs(t, nil)
	expect := func(step string, want ...string) {
		t.Helper()
		if !reflect.DeepEqual(*synced, want) {
			t.Fatalf("after %s: directories synced %v, want %v", step, *synced, want)
		}
	}

	path := filepath.Join(dir, "wal")
	j, _ := mustOpen(t, path)
	if err := j.Append(sample(TypeSubmitted, "j000001")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	expect("creating a journal", dir)
	j, _ = mustOpen(t, path)
	j.Close()
	expect("reopening it", dir, dir)

	replicas := filepath.Join(dir, "replicas")
	s := mustStore(t, replicas)
	defer s.Close()
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := s.Ingest([]Frame{frame("s1", seq, TypeSubmitted, "j000001")}); err != nil {
			t.Fatal(err)
		}
	}
	expect("ingesting into a new replica", dir, dir, replicas)

	if err := WriteJournal(filepath.Join(dir, "promoted.wal"), []Record{sample(TypeSubmitted, "j000001")}); err != nil {
		t.Fatal(err)
	}
	expect("installing a promoted journal", dir, dir, replicas, dir)
}

// A directory that cannot be synced leaves the new file's entry at risk,
// so the step that created the file fails rather than acknowledging it.
func TestFailedDirectorySyncFails(t *testing.T) {
	dir := t.TempDir()
	failing := errors.New("directory on fire")
	hookDirSyncs(t, failing)

	// A retry finds the file the failed Open created and must not skip
	// the sync.
	for try := 1; try <= 2; try++ {
		if _, _, err := Open(filepath.Join(dir, "wal")); !errors.Is(err, failing) {
			t.Errorf("Open try %d = %v, want the directory sync failure", try, err)
		}
	}
	s := mustStore(t, filepath.Join(dir, "replicas"))
	defer s.Close()
	if _, err := s.Ingest([]Frame{frame("s1", 1, TypeSubmitted, "j000001")}); !errors.Is(err, failing) {
		t.Errorf("Ingest = %v, want the directory sync failure", err)
	}
	if err := WriteJournal(filepath.Join(dir, "promoted.wal"), nil); !errors.Is(err, failing) {
		t.Errorf("WriteJournal = %v, want the directory sync failure", err)
	}
}
