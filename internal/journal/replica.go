// Replication stream and replica store.
//
// A shard's primary journal is an ordered record stream; replication
// ships that stream to follower shards as framed Frames, each carrying
// the source shard, the record's 1-based sequence number in the source
// journal, and the record itself. A follower appends incoming frames to
// one replica file per source (`replica-<src>.wal` in its data
// directory) with the same CRC/torn-tail discipline as the primary
// journal: fsync before ack, a torn tail is truncated on open, mid-file
// damage is refused.
//
// Sequence numbers make the stream self-verifying: a follower only
// appends the frame that extends its replica by exactly one record.
// Duplicates (Seq at or below what it holds) are acknowledged and
// dropped — a primary retrying a batch is harmless — and a gap (Seq
// jumping ahead) is refused with ErrGap plus the follower's current
// position, which the primary uses to re-ship the missing records from
// its own journal. The result is that every replica is a strict prefix
// of its source journal, which is exactly what failover promotion
// needs: promoting a replica is rewriting its frames back into a plain
// journal and replaying it through the normal OpenDurable path.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Frame is one replication stream element: record Seq (1-based) of the
// Src shard's primary journal.
type Frame struct {
	Src string `json:"src"`
	Seq uint64 `json:"seq"`
	Rec Record `json:"rec"`
}

// validate rejects frames no replicator of this package produces.
func (f Frame) validate() error {
	if f.Src == "" {
		return errors.New("journal: replication frame without a source shard")
	}
	if f.Seq == 0 {
		return fmt.Errorf("journal: replication frame from %s with zero sequence", f.Src)
	}
	return f.Rec.validate()
}

// EncodeFrame frames one replication element with the journal's CRC
// framing.
func EncodeFrame(f Frame) ([]byte, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding replication frame: %w", err)
	}
	return frameLine(body), nil
}

// EncodeFrames frames a batch, in order.
func EncodeFrames(frames []Frame) ([]byte, error) {
	var buf []byte
	for _, f := range frames {
		line, err := EncodeFrame(f)
		if err != nil {
			return nil, err
		}
		buf = append(buf, line...)
	}
	return buf, nil
}

// DecodeFrames parses a replication stream image with the same damage
// tolerance as Decode: the frames of the longest valid prefix are
// returned with the prefix's byte length; a damaged or unterminated
// tail is reported via torn=true (the crash signature — truncate and
// keep going) while damage before intact frames yields ErrCorrupt.
func DecodeFrames(data []byte) (frames []Frame, goodLen int, torn bool, err error) {
	return scan(data, decodeLine[Frame])
}

// ErrGap reports an ingest batch whose first new frame does not extend
// the replica by exactly one record. The primary resolves it by
// re-shipping from the follower's last sequence.
var ErrGap = errors.New("journal: replication frame gap")

// replicaPrefix and replicaSuffix shape replica file names.
const (
	replicaPrefix = "replica-"
	replicaSuffix = ".wal"
)

// ReplicaPath locates the replica file a follower keeps for src inside
// dir.
func ReplicaPath(dir, src string) string {
	return filepath.Join(dir, replicaPrefix+src+replicaSuffix)
}

// replicaFile is one open per-source replica with its append position.
type replicaFile struct {
	f        *os.File
	path     string
	seq      uint64 // highest contiguous sequence held
	poisoned error  // sticky first write/fsync failure
}

// ReplicaStore holds a follower's replica files, one per source shard,
// under a single directory. Ingest is safe for concurrent use.
type ReplicaStore struct {
	mu    sync.Mutex
	dir   string
	files map[string]*replicaFile
}

// OpenReplicaStore opens (creating if absent) the replica directory and
// every replica-*.wal inside it, truncating torn tails exactly like
// Open. Mid-file corruption in any replica is refused: a follower must
// never ack frames onto a replica whose history it cannot vouch for.
func OpenReplicaStore(dir string) (*ReplicaStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: replica dir %s: %w", dir, err)
	}
	s := &ReplicaStore{dir: dir, files: map[string]*replicaFile{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: scanning replica dir %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		src, ok := strings.CutPrefix(name, replicaPrefix)
		if !ok {
			continue
		}
		src, ok = strings.CutSuffix(src, replicaSuffix)
		if !ok || src == "" {
			continue
		}
		if _, err := s.open(src); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// open opens (creating if absent) the replica file for src and fsyncs
// its directory. Caller need not hold s.mu for OpenReplicaStore's
// sequential scan; Ingest calls it under the lock.
func (s *ReplicaStore) open(src string) (*replicaFile, error) {
	if rf, ok := s.files[src]; ok {
		return rf, nil
	}
	path := ReplicaPath(s.dir, src)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: reading replica %s: %w", path, err)
	}
	frames, good, torn, err := DecodeFrames(data)
	if err != nil {
		return nil, fmt.Errorf("journal: replica %s: %w", path, err)
	}
	seq := uint64(0)
	for _, f := range frames {
		if f.Src != src {
			return nil, fmt.Errorf("%w: replica %s holds a frame from %q", ErrCorrupt, path, f.Src)
		}
		if f.Seq != seq+1 {
			return nil, fmt.Errorf("%w: replica %s jumps from seq %d to %d", ErrCorrupt, path, seq, f.Seq)
		}
		seq = f.Seq
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening replica %s: %w", path, err)
	}
	if err := syncDir(path); err != nil { // see Open
		f.Close()
		return nil, err
	}
	if torn || good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncating torn tail of replica %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seeking replica %s: %w", path, err)
	}
	rf := &replicaFile{f: f, path: path, seq: seq}
	s.files[src] = rf
	return rf, nil
}

// Ingest appends a batch of frames from one source, fsyncing once
// before it returns. Frames at or below the replica's position are
// dropped as duplicates; the batch must otherwise extend the replica
// contiguously or the whole batch is refused with ErrGap. Either way
// the returned lastSeq is the replica's position afterwards, which the
// follower's ingest endpoint reports back so the primary can tell
// exactly where to resume. A write or fsync failure poisons the
// replica: like the primary journal, it never acks a frame it cannot
// prove durable.
func (s *ReplicaStore) Ingest(frames []Frame) (lastSeq uint64, err error) {
	if len(frames) == 0 {
		return 0, errors.New("journal: empty replication batch")
	}
	src := frames[0].Src
	for _, f := range frames {
		if err := f.validate(); err != nil {
			return 0, err
		}
		if f.Src != src {
			return 0, fmt.Errorf("journal: replication batch mixes sources %q and %q", src, f.Src)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:allow lockorder open fsyncs the directory only when it first opens a source's replica, once per source per process, and that entry must be durable before this batch is acked
	rf, err := s.open(src)
	if err != nil {
		return 0, err
	}
	if rf.poisoned != nil {
		return rf.seq, rf.poisoned
	}

	var buf []byte
	seq := rf.seq
	for _, f := range frames {
		if f.Seq <= seq {
			continue // duplicate of a frame already held
		}
		if f.Seq != seq+1 {
			return rf.seq, fmt.Errorf("%w: replica of %s holds seq %d, batch offers %d", ErrGap, src, rf.seq, f.Seq)
		}
		line, err := EncodeFrame(f)
		if err != nil {
			return rf.seq, err
		}
		buf = append(buf, line...)
		seq = f.Seq
	}
	if len(buf) == 0 {
		return rf.seq, nil // pure duplicate batch: ack without touching the disk
	}
	if _, err := rf.f.Write(buf); err != nil {
		rf.poisoned = fmt.Errorf("%w: appending to replica %s: %w", ErrPoisoned, rf.path, err)
		return rf.seq, rf.poisoned
	}
	if err := fsync(rf.f); err != nil {
		rf.poisoned = fmt.Errorf("%w: fsync replica %s: %w", ErrPoisoned, rf.path, err)
		return rf.seq, rf.poisoned
	}
	rf.seq = seq
	return rf.seq, nil
}

// LastSeq returns the highest contiguous sequence held for src, 0 when
// no replica exists.
func (s *ReplicaStore) LastSeq(src string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rf, ok := s.files[src]; ok {
		return rf.seq
	}
	return 0
}

// Sources returns every source shard with a replica here and its
// position, sorted by shard name.
func (s *ReplicaStore) Sources() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.files))
	for src, rf := range s.files {
		out[src] = rf.seq
	}
	return out
}

// Dir returns the store's directory.
func (s *ReplicaStore) Dir() string {
	return s.dir
}

// Close closes every replica file. It is idempotent.
func (s *ReplicaStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	names := make([]string, 0, len(s.files))
	for src := range s.files {
		names = append(names, src)
	}
	sort.Strings(names)
	for _, src := range names {
		rf := s.files[src]
		if rf.f != nil {
			if err := rf.f.Close(); err != nil && first == nil {
				first = fmt.Errorf("journal: closing replica %s: %w", rf.path, err)
			}
			rf.f = nil
		}
		delete(s.files, src)
	}
	return first
}

// ReadReplica decodes a replica file offline (no open handles, torn
// tail tolerated) and returns its records in sequence order plus the
// highest sequence held. Failover promotion uses it to size up each
// follower's copy of a dead shard's journal; a missing file is simply
// an empty replica.
func ReadReplica(path string) (recs []Record, lastSeq uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("journal: reading replica %s: %w", path, err)
	}
	frames, _, _, err := DecodeFrames(data)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: replica %s: %w", path, err)
	}
	seq := uint64(0)
	for _, f := range frames {
		if f.Seq != seq+1 {
			return nil, 0, fmt.Errorf("%w: replica %s jumps from seq %d to %d", ErrCorrupt, path, seq, f.Seq)
		}
		seq = f.Seq
		recs = append(recs, f.Rec)
	}
	return recs, seq, nil
}

// WriteJournal writes records as a plain journal image at path,
// atomically: the image lands in a temp file, is fsynced, and renamed
// into place, and the directory is fsynced, so a crash mid-promotion
// leaves either no journal or a complete one — never a half-written
// history presented as whole.
func WriteJournal(path string, recs []Record) error {
	var buf []byte
	for _, r := range recs {
		line, err := encode(r)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("journal: writing %s: %w", tmp, err)
	}
	if err := fsync(f); err != nil {
		f.Close()
		return fmt.Errorf("journal: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: installing %s: %w", path, err)
	}
	return syncDir(path)
}

// PromoteReplica rewrites the replica at replicaPath into a plain
// journal at journalPath and returns how many records it carried. The
// promoted journal replays through the ordinary OpenDurable recovery
// path: terminal jobs rehydrate with their results, unfinished jobs
// re-enqueue and run again.
func PromoteReplica(replicaPath, journalPath string) (int, error) {
	recs, _, err := ReadReplica(replicaPath)
	if err != nil {
		return 0, err
	}
	if err := WriteJournal(journalPath, recs); err != nil {
		return 0, err
	}
	return len(recs), nil
}
