// Package journal implements clusterd's write-ahead job journal: an
// append-only log of job lifecycle records, one CRC-framed JSON record
// per line, fsynced before the corresponding state change is
// acknowledged to a client.
//
// The framing is deliberately boring — `crc32c(json) SP json LF` — so a
// journal survives being inspected (and repaired) with a text editor.
// Decoding is tolerant of exactly the damage a crash can inflict: a torn
// final record (the write the machine died in the middle of) is dropped
// and truncated away on the next open. Damage anywhere *before* intact
// records cannot be produced by a crash of this writer, only by external
// corruption, so it is refused with ErrCorrupt rather than silently
// skipped — recovery must never invent a job history. Neither can a
// record whose checksum verifies but whose body this build cannot decode
// (a record type from a newer build, say): the writer finished it, so it
// is ErrCorrupt wherever it sits, never a torn tail to truncate.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Type tags one lifecycle record.
type Type string

// The record vocabulary. One job emits submitted → started →
// (done|failed|cancelled); started repeats per retry attempt. A shutdown
// record carries no job: it marks a clean drain, letting recovery
// distinguish "the daemon chose to stop" from "the daemon died".
const (
	TypeSubmitted Type = "submitted"
	TypeStarted   Type = "started"
	TypeDone      Type = "done"
	TypeFailed    Type = "failed"
	TypeCancelled Type = "cancelled"
	TypeShutdown  Type = "shutdown"
)

// known vocabulary for decode-time validation.
var knownTypes = map[Type]bool{
	TypeSubmitted: true, TypeStarted: true, TypeDone: true,
	TypeFailed: true, TypeCancelled: true, TypeShutdown: true,
}

// Record is one journal entry. Spec and Result are raw JSON so this
// package stays independent of the service's types; the service owns
// their schemas.
type Record struct {
	Type  Type      `json:"type"`
	JobID string    `json:"job,omitempty"`
	At    time.Time `json:"at,omitzero"`
	// Spec and Key accompany a submitted record.
	Spec json.RawMessage `json:"spec,omitempty"`
	Key  string          `json:"key,omitempty"`
	// Attempt is the 0-based attempt number on a started record and the
	// total attempts consumed on a terminal record.
	Attempt int `json:"attempt,omitempty"`
	// Cached marks a done record answered from the result cache.
	Cached bool `json:"cached,omitempty"`
	// Degraded marks a failed record that exhausted its fault retries.
	Degraded bool            `json:"degraded,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// validate rejects records no writer of this package produces.
func (r Record) validate() error {
	if !knownTypes[r.Type] {
		return fmt.Errorf("journal: unknown record type %q", r.Type)
	}
	if r.Type != TypeShutdown && r.JobID == "" {
		return fmt.Errorf("journal: %s record without a job id", r.Type)
	}
	return nil
}

// ErrCorrupt reports damage a crash of this writer cannot produce: a
// damaged record followed by further intact records, or a checksummed
// record that does not decode.
var ErrCorrupt = errors.New("journal: corrupt record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameLine wraps one JSON body in the journal framing: 8 hex digits of
// CRC-32C over the body, a space, the body, a newline. The replication
// stream (replica.go) reuses the same discipline so both kinds of file
// survive inspection with a text editor and tolerate exactly the same
// crash damage.
func frameLine(body []byte) []byte {
	line := make([]byte, 0, len(body)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(body, castagnoli))
	line = append(line, body...)
	line = append(line, '\n')
	return line
}

// unframeLine checks one framed line (without its newline) and returns
// the JSON body.
func unframeLine(line []byte) ([]byte, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("journal: malformed frame (%d bytes)", len(line))
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return nil, fmt.Errorf("journal: malformed checksum: %w", err)
	}
	body := line[9:]
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("journal: checksum mismatch: frame says %08x, body hashes to %08x", want, got)
	}
	return body, nil
}

// encode frames one record: 8 hex digits of CRC-32C over the JSON body,
// a space, the body, a newline.
func encode(r Record) ([]byte, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	return frameLine(body), nil
}

// decodeBody parses one checksummed body into a journal record or a
// replication frame, and validates it.
func decodeBody[T interface {
	Record | Frame
	validate() error
}](body []byte) (T, error) {
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("journal: undecodable %T: %w", v, err)
	}
	if err := v.validate(); err != nil {
		return v, err
	}
	return v, nil
}

// Decode parses a journal image and returns the records of its longest
// valid prefix plus the byte length of that prefix. A malformed,
// checksum-failing or unterminated *tail* — the signature of a crash
// mid-append — is reported via torn=true and is not an error; Open
// truncates it away. A damaged line with intact lines after it, or a line
// whose checksum verifies but which does not decode, cannot come from a
// crash and yields ErrCorrupt: the prefix before it is still returned,
// but the journal must not be silently reused.
func Decode(data []byte) (recs []Record, goodLen int, torn bool, err error) {
	return scan(data, decodeBody[Record])
}

// scan parses an image of framed lines, each body decoded by decode, with
// Decode's damage rules: the values of the longest valid prefix and its
// byte length, torn=true for a damaged or unterminated tail, ErrCorrupt
// for damage with an intact line after it and for any checksummed line
// decode refuses.
func scan[T any](data []byte, decode func([]byte) (T, error)) (vals []T, goodLen int, torn bool, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated tail: the newline is written (and fsynced) with
			// its line, so an unterminated line was never acknowledged.
			return vals, off, true, nil
		}
		body, ferr := unframeLine(data[off : off+nl])
		if ferr != nil {
			if intactLineAfter(data[off+nl+1:]) {
				return vals, off, false, fmt.Errorf("%w at byte %d: %w", ErrCorrupt, off, ferr)
			}
			return vals, off, true, nil
		}
		v, derr := decode(body)
		if derr != nil {
			// The checksum covers the body, so the writer finished this
			// line: no crash tore it, and truncating it would erase
			// acknowledged history.
			return vals, off, false, fmt.Errorf("%w at byte %d: %w", ErrCorrupt, off, derr)
		}
		vals = append(vals, v)
		off += nl + 1
	}
	return vals, off, false, nil
}

// intactLineAfter reports whether any complete line with a verifying
// checksum follows.
func intactLineAfter(data []byte) bool {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return false
		}
		if _, err := unframeLine(data[:nl]); err == nil {
			return true
		}
		data = data[nl+1:]
	}
	return false
}

// fsync is the journal's one hook into the platter. A package variable
// so tests can inject a failing sync and exercise the fail-stop path
// without needing a broken disk.
var fsync = func(f *os.File) error { return f.Sync() }

// syncDir fsyncs the directory holding path, through the fsync hook, so
// a file just created or renamed there keeps its directory entry through
// a power loss.
func syncDir(path string) error {
	dir := filepath.Dir(path)
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: opening directory %s: %w", dir, err)
	}
	defer d.Close()
	if err := fsync(d); err != nil {
		return fmt.Errorf("journal: fsync directory %s: %w", dir, err)
	}
	return nil
}

// ErrPoisoned wraps the first write or fsync failure of a journal (or a
// replica store file). Once poisoned, every subsequent append returns
// the same sticky error: a journal that cannot prove a record reached
// the platter must never acknowledge another one, because the service
// above it treats a successful append as permission to ack the client.
var ErrPoisoned = errors.New("journal: poisoned by an earlier write or fsync failure")

// Journal is an open write-ahead journal. Append is safe for concurrent
// use; each record is fsynced before Append returns, so an acknowledged
// record survives any subsequent crash. A failed write or fsync poisons
// the journal: the error is sticky and every later Append fails with it,
// rather than silently resuming on a file whose tail state is unknown.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	appended uint64
	poisoned error // sticky first write/fsync failure
}

// Open opens (creating if absent) the journal at path, fsyncs its
// directory, and replays its records. A torn final record is truncated
// away; mid-file corruption and a checksummed record this build cannot
// decode are refused with ErrCorrupt, leaving the file untouched. The
// returned journal is positioned for appending.
func Open(path string) (*Journal, []Record, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	recs, good, torn, err := Decode(data)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: opening %s: %w", path, err)
	}
	// The file may be new, or left by an Open that failed here: either
	// way its directory entry must be durable before a record is acked.
	if err := syncDir(path); err != nil {
		f.Close()
		return nil, nil, err
	}
	if torn || good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seeking %s: %w", path, err)
	}
	return &Journal{f: f, path: path}, recs, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Appended returns the number of records written through this handle.
func (j *Journal) Appended() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Err returns the sticky poison error, nil while the journal is healthy.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.poisoned
}

// Append writes the records and fsyncs once. Either every record is
// committed or (on error) the journal is poisoned: the failure is sticky
// and every subsequent Append returns it, so a record that may never
// have hit the platter can never be followed by an acknowledged one.
// Partial writes surface as a torn tail on the next Open.
func (j *Journal) Append(recs ...Record) error {
	var buf []byte
	for _, r := range recs {
		line, err := encode(r)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.poisoned != nil {
		return j.poisoned
	}
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if _, err := j.f.Write(buf); err != nil {
		j.poisoned = fmt.Errorf("%w: appending to %s: %w", ErrPoisoned, j.path, err)
		return fmt.Errorf("journal: appending to %s: %w", j.path, err)
	}
	if err := fsync(j.f); err != nil {
		j.poisoned = fmt.Errorf("%w: fsync %s: %w", ErrPoisoned, j.path, err)
		return fmt.Errorf("journal: fsync %s: %w", j.path, err)
	}
	j.appended += uint64(len(recs))
	return nil
}

// Close syncs and closes the journal. It is idempotent. A poisoned
// journal is closed without the final sync — its durability promise is
// already void and the poison error explains why.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	f := j.f
	j.f = nil
	if j.poisoned != nil {
		_ = f.Close()
		return j.poisoned
	}
	if err := fsync(f); err != nil {
		f.Close()
		return fmt.Errorf("journal: fsync %s: %w", j.path, err)
	}
	return f.Close()
}
