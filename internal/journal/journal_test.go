package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sample builds a plausible lifecycle record.
func sample(typ Type, id string) Record {
	r := Record{Type: typ, JobID: id, At: time.Date(2021, 9, 7, 12, 0, 0, 0, time.UTC)}
	switch typ {
	case TypeSubmitted:
		r.Spec = json.RawMessage(`{"kind":"hpl","nodes":4}`)
		r.Key = "deadbeef"
	case TypeDone:
		r.Result = json.RawMessage(`{"kind":"hpl","summary":"ok"}`)
		r.Attempt = 1
	case TypeFailed:
		r.Error = "model exploded"
		r.Degraded = true
	case TypeShutdown:
		r.JobID = ""
	}
	return r
}

func mustOpen(t *testing.T, path string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return j, recs
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, recs := mustOpen(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		sample(TypeSubmitted, "j000001"),
		sample(TypeStarted, "j000001"),
		sample(TypeDone, "j000001"),
		sample(TypeShutdown, ""),
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append(%s): %v", r.Type, err)
		}
	}
	if got := j.Appended(); got != uint64(len(want)) {
		t.Errorf("Appended() = %d, want %d", got, len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	j2, got := mustOpen(t, path)
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(got[i])
		if !bytes.Equal(a, b) {
			t.Errorf("record %d: got %s, want %s", i, b, a)
		}
	}
}

func TestEmptyJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs := mustOpen(t, path)
	defer j.Close()
	if len(recs) != 0 {
		t.Errorf("empty journal replayed %d records", len(recs))
	}
	if err := j.Append(sample(TypeSubmitted, "j000001")); err != nil {
		t.Errorf("append to reopened empty journal: %v", err)
	}
}

// TestTruncatedFinalRecord chops bytes off a valid journal at every
// possible point within the last record: each truncation must replay the
// intact prefix, report no error, and leave the file appendable.
func TestTruncatedFinalRecord(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	j, _ := mustOpen(t, full)
	for i, r := range []Record{sample(TypeSubmitted, "j000001"), sample(TypeStarted, "j000001")} {
		if err := j.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	j.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := bytes.IndexByte(data, '\n') + 1

	for cut := firstLen; cut < len(data); cut++ {
		path := filepath.Join(dir, "torn")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jt, recs, err := Open(path)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if len(recs) != 1 {
			t.Fatalf("cut=%d: replayed %d records, want 1 (torn tail dropped)", cut, len(recs))
		}
		// The torn tail must be gone: an append must produce a journal
		// that replays cleanly.
		if err := jt.Append(sample(TypeDone, "j000001")); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		jt.Close()
		_, recs, err = Open(path)
		if err != nil {
			t.Fatalf("cut=%d: reopen after repair: %v", cut, err)
		}
		if len(recs) != 2 || recs[1].Type != TypeDone {
			t.Fatalf("cut=%d: repaired journal replayed %d records", cut, len(recs))
		}
	}
}

// TestCorruptMidFile flips a byte inside an early record: damage before
// intact records is external corruption and must be refused, not skipped.
func TestCorruptMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := mustOpen(t, path)
	for _, r := range []Record{
		sample(TypeSubmitted, "j000001"),
		sample(TypeStarted, "j000001"),
		sample(TypeDone, "j000001"),
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := bytes.IndexByte(data, '\n') + 1
	corrupted := append([]byte(nil), data...)
	corrupted[second+12] ^= 0xff // inside record 2's JSON body
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(corrupt mid-file) = %v, want ErrCorrupt", err)
	}
	// The file must be left untouched for forensics.
	after, _ := os.ReadFile(path)
	if !bytes.Equal(after, corrupted) {
		t.Error("Open modified a journal it refused to use")
	}
}

// TestUndecodableRecordRefused pins that a line whose checksum verifies
// but whose record this build cannot decode — a record type from a newer
// build — is ErrCorrupt wherever it sits. The writer finished that line,
// so it is not a torn tail, and truncating it would erase acknowledged
// history.
func TestUndecodableRecordRefused(t *testing.T) {
	first, err := encode(sample(TypeSubmitted, "j000001"))
	if err != nil {
		t.Fatal(err)
	}
	unknown := frameLine([]byte(`{"type":"checkpoint","job":"j000001"}`))
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"tail", append(append([]byte{}, first...), unknown...)},
		{"mid-file", append(append(append([]byte{}, first...), unknown...), first...)},
		{"bad json", append(append([]byte{}, first...), frameLine([]byte(`{"type":`))...)},
		{"no job id", append(append([]byte{}, first...), frameLine([]byte(`{"type":"started"}`))...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			recs, good, torn, err := Decode(c.data)
			if !errors.Is(err, ErrCorrupt) || torn {
				t.Fatalf("Decode = torn=%v err=%v, want ErrCorrupt", torn, err)
			}
			if len(recs) != 1 || good != len(first) {
				t.Errorf("Decode kept %d records / %d bytes, want the 1-record prefix of %d bytes", len(recs), good, len(first))
			}
			path := filepath.Join(t.TempDir(), "wal")
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Open(path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, c.data) {
				t.Errorf("Open left %d of %d bytes: it truncated a journal it refused", len(after), len(c.data))
			}
		})
	}
}

// TestShutdownMarkerRoundtrip pins the marker semantics recovery keys
// on: present only when the last writer drained cleanly.
func TestShutdownMarkerRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := mustOpen(t, path)
	j.Append(sample(TypeSubmitted, "j000001"))
	j.Append(sample(TypeShutdown, ""))
	j.Close()

	j2, recs := mustOpen(t, path)
	if recs[len(recs)-1].Type != TypeShutdown {
		t.Errorf("last record = %s, want shutdown", recs[len(recs)-1].Type)
	}
	// The next incarnation appends past the marker; the marker is then
	// no longer last, i.e. the newest run did NOT shut down cleanly.
	j2.Append(sample(TypeSubmitted, "j000002"))
	j2.Close()
	_, recs = mustOpen(t, path)
	if recs[len(recs)-1].Type == TypeShutdown {
		t.Error("stale shutdown marker still terminal after new appends")
	}
}

func TestAppendAtomicBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := mustOpen(t, path)
	defer j.Close()
	err := j.Append(sample(TypeSubmitted, "j000001"), sample(TypeDone, "j000001"))
	if err != nil {
		t.Fatal(err)
	}
	if j.Appended() != 2 {
		t.Errorf("Appended() = %d after batch of 2", j.Appended())
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := mustOpen(t, path)
	j.Close()
	if err := j.Append(sample(TypeSubmitted, "j000001")); err == nil {
		t.Error("Append after Close succeeded")
	}
}

func TestRejectsInvalidRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := mustOpen(t, path)
	defer j.Close()
	if err := j.Append(Record{Type: "resubmitted", JobID: "j1"}); err == nil {
		t.Error("unknown record type accepted")
	}
	if err := j.Append(Record{Type: TypeStarted}); err == nil {
		t.Error("job record without id accepted")
	}
}

func TestFsyncFailurePoisonsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := mustOpen(t, path)
	defer j.Close()
	if err := j.Append(sample(TypeSubmitted, "j000001")); err != nil {
		t.Fatal(err)
	}

	failing := errors.New("platter on fire")
	orig := fsync
	fsync = func(*os.File) error { return failing }
	err := j.Append(sample(TypeStarted, "j000001"))
	fsync = orig
	if !errors.Is(err, failing) {
		t.Fatalf("Append during fsync failure err = %v, want cause wrapped", err)
	}

	// The journal is poisoned: the sticky error survives fsync healing,
	// because the tail state of the file is unknown and a journal that
	// cannot prove a record durable must never acknowledge another one.
	if err := j.Err(); !errors.Is(err, ErrPoisoned) || !errors.Is(err, failing) {
		t.Fatalf("Err() = %v, want ErrPoisoned wrapping cause", err)
	}
	if err := j.Append(sample(TypeDone, "j000001")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Append after poison err = %v, want sticky ErrPoisoned", err)
	}
	if got := j.Appended(); got != 1 {
		t.Errorf("Appended() = %d after poisoned appends, want 1", got)
	}
	if err := j.Close(); !errors.Is(err, ErrPoisoned) {
		t.Errorf("Close of poisoned journal err = %v, want ErrPoisoned", err)
	}
}
