package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// frame builds a replication frame around a sample record.
func frame(src string, seq uint64, typ Type, id string) Frame {
	return Frame{Src: src, Seq: seq, Rec: sample(typ, id)}
}

func mustStore(t *testing.T, dir string) *ReplicaStore {
	t.Helper()
	s, err := OpenReplicaStore(dir)
	if err != nil {
		t.Fatalf("OpenReplicaStore(%s): %v", dir, err)
	}
	return s
}

func TestReplicaIngestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir)
	batch := []Frame{
		frame("s1", 1, TypeSubmitted, "j000001"),
		frame("s1", 2, TypeStarted, "j000001"),
		frame("s1", 3, TypeDone, "j000001"),
	}
	last, err := s.Ingest(batch)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if last != 3 {
		t.Fatalf("Ingest lastSeq = %d, want 3", last)
	}
	if got := s.LastSeq("s1"); got != 3 {
		t.Errorf("LastSeq = %d, want 3", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened store resumes at the same position, and the replica
	// reads back record-for-record.
	s2 := mustStore(t, dir)
	defer s2.Close()
	if got := s2.LastSeq("s1"); got != 3 {
		t.Errorf("reopened LastSeq = %d, want 3", got)
	}
	recs, seq, err := ReadReplica(ReplicaPath(dir, "s1"))
	if err != nil {
		t.Fatalf("ReadReplica: %v", err)
	}
	if seq != 3 || len(recs) != 3 {
		t.Fatalf("ReadReplica = %d recs, seq %d; want 3, 3", len(recs), seq)
	}
	for i, f := range batch {
		a, _ := json.Marshal(f.Rec)
		b, _ := json.Marshal(recs[i])
		if !bytes.Equal(a, b) {
			t.Errorf("record %d: got %s, want %s", i, b, a)
		}
	}
}

func TestReplicaIngestDuplicatesAndGaps(t *testing.T) {
	s := mustStore(t, t.TempDir())
	defer s.Close()
	if _, err := s.Ingest([]Frame{frame("s1", 1, TypeSubmitted, "j000001")}); err != nil {
		t.Fatal(err)
	}

	// A retried batch overlapping what we hold is acked, not re-appended.
	last, err := s.Ingest([]Frame{
		frame("s1", 1, TypeSubmitted, "j000001"),
		frame("s1", 2, TypeStarted, "j000001"),
	})
	if err != nil || last != 2 {
		t.Fatalf("overlapping Ingest = %d, %v; want 2, nil", last, err)
	}

	// A pure duplicate batch is a no-op ack.
	last, err = s.Ingest([]Frame{frame("s1", 2, TypeStarted, "j000001")})
	if err != nil || last != 2 {
		t.Fatalf("duplicate Ingest = %d, %v; want 2, nil", last, err)
	}

	// A gap is refused wholesale with our position.
	last, err = s.Ingest([]Frame{frame("s1", 4, TypeDone, "j000001")})
	if !errors.Is(err, ErrGap) {
		t.Fatalf("gap Ingest err = %v, want ErrGap", err)
	}
	if last != 2 {
		t.Errorf("gap Ingest lastSeq = %d, want 2", last)
	}
	if got := s.LastSeq("s1"); got != 2 {
		t.Errorf("LastSeq after refused gap = %d, want 2", got)
	}

	// The first frame for an unknown source must be seq 1: a replica
	// missing its prefix would be useless for promotion.
	if _, err := s.Ingest([]Frame{frame("s9", 5, TypeSubmitted, "j000009")}); !errors.Is(err, ErrGap) {
		t.Fatalf("unknown-source mid-stream Ingest err = %v, want ErrGap", err)
	}

	// Mixed-source batches are refused before touching disk.
	if _, err := s.Ingest([]Frame{
		frame("s1", 3, TypeDone, "j000001"),
		frame("s2", 1, TypeSubmitted, "j000002"),
	}); err == nil {
		t.Fatal("mixed-source Ingest succeeded")
	}
}

func TestReplicaTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir)
	if _, err := s.Ingest([]Frame{
		frame("s1", 1, TypeSubmitted, "j000001"),
		frame("s1", 2, TypeStarted, "j000001"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn half-frame on the tail.
	path := ReplicaPath(dir, "s1")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef {\"src\":\"s1\",\"seq"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustStore(t, dir)
	defer s2.Close()
	if got := s2.LastSeq("s1"); got != 2 {
		t.Fatalf("LastSeq after torn tail = %d, want 2", got)
	}
	// The tail was truncated: the next ingest extends cleanly.
	if _, err := s2.Ingest([]Frame{frame("s1", 3, TypeDone, "j000001")}); err != nil {
		t.Fatalf("Ingest after torn-tail truncation: %v", err)
	}
}

func TestReplicaMidFileCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir)
	if _, err := s.Ingest([]Frame{
		frame("s1", 1, TypeSubmitted, "j000001"),
		frame("s1", 2, TypeStarted, "j000001"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := ReplicaPath(dir, "s1")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[2] ^= 0xff // flip a checksum digit of the first frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenReplicaStore(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenReplicaStore over corrupt replica err = %v, want ErrCorrupt", err)
	}
	if _, _, err := ReadReplica(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadReplica over corrupt replica err = %v, want ErrCorrupt", err)
	}
}

func TestPromoteReplica(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir)
	want := []Record{
		sample(TypeSubmitted, "j000001"),
		sample(TypeStarted, "j000001"),
		sample(TypeDone, "j000001"),
		sample(TypeSubmitted, "j000002"),
	}
	frames := make([]Frame, len(want))
	for i, r := range want {
		frames[i] = Frame{Src: "s1", Seq: uint64(i + 1), Rec: r}
	}
	if _, err := s.Ingest(frames); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Promotion rewrites the replica as a plain journal that Open
	// replays like any other.
	journalPath := filepath.Join(t.TempDir(), "journal.wal")
	n, err := PromoteReplica(ReplicaPath(dir, "s1"), journalPath)
	if err != nil {
		t.Fatalf("PromoteReplica: %v", err)
	}
	if n != len(want) {
		t.Fatalf("PromoteReplica = %d records, want %d", n, len(want))
	}
	j, got := mustOpen(t, journalPath)
	defer j.Close()
	if len(got) != len(want) {
		t.Fatalf("promoted journal replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(got[i])
		if !bytes.Equal(a, b) {
			t.Errorf("record %d: got %s, want %s", i, b, a)
		}
	}
	if _, err := os.Stat(journalPath + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("promotion left temp file behind: %v", err)
	}
}

func TestPromoteMissingReplicaIsEmpty(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.wal")
	n, err := PromoteReplica(ReplicaPath(dir, "never"), journalPath)
	if err != nil {
		t.Fatalf("PromoteReplica of missing replica: %v", err)
	}
	if n != 0 {
		t.Fatalf("PromoteReplica of missing replica = %d records, want 0", n)
	}
	j, recs := mustOpen(t, journalPath)
	defer j.Close()
	if len(recs) != 0 {
		t.Fatalf("empty promotion replayed %d records", len(recs))
	}
}

func TestReplicaIngestPoisonSticks(t *testing.T) {
	s := mustStore(t, t.TempDir())
	defer s.Close()
	if _, err := s.Ingest([]Frame{frame("s1", 1, TypeSubmitted, "j000001")}); err != nil {
		t.Fatal(err)
	}

	failing := errors.New("platter on fire")
	orig := fsync
	fsync = func(*os.File) error { return failing }
	_, err := s.Ingest([]Frame{frame("s1", 2, TypeStarted, "j000001")})
	fsync = orig
	if !errors.Is(err, ErrPoisoned) || !errors.Is(err, failing) {
		t.Fatalf("Ingest during fsync failure err = %v, want ErrPoisoned wrapping cause", err)
	}
	if got := s.LastSeq("s1"); got != 1 {
		t.Errorf("LastSeq after failed fsync = %d, want 1", got)
	}

	// The poison is sticky even after fsync heals: the file's tail state
	// is unknown, so the store must never ack another frame onto it.
	if _, err := s.Ingest([]Frame{frame("s1", 2, TypeStarted, "j000001")}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Ingest after poison err = %v, want sticky ErrPoisoned", err)
	}

	// Other sources are unaffected.
	if _, err := s.Ingest([]Frame{frame("s2", 1, TypeSubmitted, "j000002")}); err != nil {
		t.Fatalf("Ingest to healthy source after poison: %v", err)
	}
}

func TestDecodeFramesRejectsInvalid(t *testing.T) {
	line, err := EncodeFrame(frame("s1", 1, TypeSubmitted, "j000001"))
	if err != nil {
		t.Fatal(err)
	}

	// Zero seq and empty src never leave a healthy encoder.
	if _, err := EncodeFrame(Frame{Src: "s1", Rec: sample(TypeSubmitted, "j1")}); err == nil {
		t.Error("EncodeFrame accepted zero seq")
	}
	if _, err := EncodeFrame(Frame{Seq: 1, Rec: sample(TypeSubmitted, "j1")}); err == nil {
		t.Error("EncodeFrame accepted empty src")
	}

	// A corrupt first frame with an intact frame after it is ErrCorrupt,
	// not a torn tail.
	bad := append([]byte("00000000 {}\n"), line...)
	if _, _, _, err := DecodeFrames(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeFrames err = %v, want ErrCorrupt", err)
	}

	// A damaged tail alone is torn, and the prefix survives.
	torn := append(append([]byte{}, line...), []byte("00000000 {}\n")...)
	frames, good, isTorn, err := DecodeFrames(torn)
	if err != nil || !isTorn {
		t.Fatalf("DecodeFrames(torn) = torn=%v err=%v, want torn=true err=nil", isTorn, err)
	}
	if len(frames) != 1 || good != len(line) {
		t.Fatalf("DecodeFrames(torn) kept %d frames / %d bytes, want 1 / %d", len(frames), good, len(line))
	}
}

// TestUndecodableFrameRefused is TestUndecodableRecordRefused for the
// replication stream: a checksummed frame that does not decode is
// ErrCorrupt at the tail as mid-stream, and a replica store holding one
// refuses to open rather than truncating it.
func TestUndecodableFrameRefused(t *testing.T) {
	first, err := EncodeFrame(frame("s1", 1, TypeSubmitted, "j000001"))
	if err != nil {
		t.Fatal(err)
	}
	unknown := frameLine([]byte(`{"src":"s1","seq":2,"rec":{"type":"checkpoint","job":"j000001"}}`))
	tail := append(append([]byte{}, first...), unknown...)
	for name, data := range map[string][]byte{
		"tail":     tail,
		"mid-file": append(append([]byte{}, tail...), first...),
		"zero seq": append(append([]byte{}, first...), frameLine([]byte(`{"src":"s1","rec":{"type":"started","job":"j1"}}`))...),
	} {
		frames, good, torn, err := DecodeFrames(data)
		if !errors.Is(err, ErrCorrupt) || torn {
			t.Fatalf("%s: DecodeFrames = torn=%v err=%v, want ErrCorrupt", name, torn, err)
		}
		if len(frames) != 1 || good != len(first) {
			t.Errorf("%s: DecodeFrames kept %d frames / %d bytes, want 1 / %d", name, len(frames), good, len(first))
		}
	}

	dir := t.TempDir()
	path := ReplicaPath(dir, "s1")
	if err := os.WriteFile(path, tail, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReplicaStore(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenReplicaStore = %v, want ErrCorrupt", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, tail) {
		t.Errorf("OpenReplicaStore left %d of %d bytes: it truncated a replica it refused", len(after), len(tail))
	}
}
