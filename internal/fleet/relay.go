package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"clustereval/internal/service"
)

// The relay rewrites a shard's job view for the fleet surface without
// decoding it. A shard writes its view with service.WriteJSON, so every
// top-level member value is already laid out as WriteJSON would lay it out
// in the fleet's reply. The splice validates the payload as the decoder
// would, orders the members by name (the order WriteJSON gives a map),
// rewrites id, adds shard and copies every other member's bytes.

// member is one top-level member of a shard's job view.
type member struct {
	name  []byte // the decoded name
	key   []byte // the name as WriteJSON encodes it, quotes included
	value []byte // the value as the shard wrote it
}

// splicer is one relay's scratch, pooled: the scanner, the view's
// members, the two rewritten values and the reply being built.
type splicer struct {
	scan      scanner
	members   []member
	id, shard []byte
	out       []byte
}

var splicers = sync.Pool{New: func() any { return new(splicer) }}

var (
	idName, idKey       = []byte("id"), []byte(`"id"`)
	shardName, shardKey = []byte("shard"), []byte(`"shard"`)
)

// relayView answers with the fleet's form of a shard's job view: the
// shard's members in name order, the last of each name kept, with id set
// to publicID and shard added; an empty publicID stands for the fleet ID
// of the shard's own id. For a view the shard wrote these are the bytes
// WriteJSON writes for the decoded view with the same rewrite. A payload
// that is not a JSON object with a non-empty string id is refused, with
// nothing written.
func relayView(w http.ResponseWriter, code int, payload []byte, shard, publicID string) error {
	sp := splicers.Get().(*splicer)
	defer func() {
		if cap(sp.out) <= service.MaxPooledBuffer {
			clear(sp.members) // drop the references into payload
			sp.scan, sp.members = scanner{}, sp.members[:0]
			sp.id, sp.shard, sp.out = sp.id[:0], sp.shard[:0], sp.out[:0]
			splicers.Put(sp)
		}
	}()
	idValue, err := sp.parse(payload)
	if err != nil {
		return err
	}
	switch local := idValue[1 : len(idValue)-1]; {
	case publicID != "":
		sp.id = appendQuoted(sp.id, publicID)
	case plain(local): // the fleet ID needs no escaping either
		sp.id = append(sp.id, '"')
		sp.id = append(sp.id, shard...)
		sp.id = append(sp.id, '-')
		sp.id = append(sp.id, local...)
		sp.id = append(sp.id, '"')
	default:
		sp.id = appendQuoted(sp.id, fleetID(shard, decodeString(idValue)))
	}
	sp.shard = appendQuoted(sp.shard, shard)
	// Appended last, the rewritten members win over the shard's own.
	sp.members = append(sp.members,
		member{name: idName, key: idKey, value: sp.id},
		member{name: shardName, key: shardKey, value: sp.shard})
	slices.SortStableFunc(sp.members, func(a, b member) int { return bytes.Compare(a.name, b.name) })

	sp.out = append(sp.out, '{')
	for i, m := range sp.members {
		if i+1 < len(sp.members) && bytes.Equal(m.name, sp.members[i+1].name) {
			continue // a later member of the same name replaces this one
		}
		if len(sp.out) > 1 {
			sp.out = append(sp.out, ',')
		}
		sp.out = append(sp.out, "\n"+service.JSONIndent...)
		sp.out = append(sp.out, m.key...)
		sp.out = append(sp.out, ": "...)
		sp.out = append(sp.out, m.value...)
	}
	sp.out = append(sp.out, "\n}\n"...)
	copyJSON(w, code, sp.out)
	return nil
}

// localID returns the shard's own id from its job view.
func localID(payload []byte) (string, error) {
	var sp splicer
	idValue, err := sp.parse(payload)
	if err != nil {
		return "", err
	}
	return decodeString(idValue), nil
}

// parse splits payload into sp.members and returns the value of its last
// id member. It refuses, in the decoding relay's words, what that relay
// refused: anything but a JSON object whose last id is a non-empty string.
func (sp *splicer) parse(payload []byte) ([]byte, error) {
	sp.scan = scanner{b: payload}
	s := &sp.scan
	s.space()
	if !s.peek('{') || !s.object(1, sp) {
		return nil, refusal(payload)
	}
	if s.space(); s.i != len(s.b) {
		return nil, refusal(payload)
	}
	var idValue []byte
	for _, m := range sp.members {
		if bytes.Equal(m.name, idName) {
			idValue = m.value
		}
	}
	if len(idValue) < 3 || idValue[0] != '"' {
		return nil, refusal(payload)
	}
	return idValue, nil
}

// refusal is the error the decoding relay gave for a payload it refused.
func refusal(payload []byte) error {
	var view map[string]json.RawMessage
	if err := json.Unmarshal(payload, &view); err != nil {
		return fmt.Errorf("fleet: shard job view: %w", err)
	}
	return errors.New("fleet: shard job view carries no id")
}

// plain reports whether a string's bytes need no escaping: they are
// what the string decodes to and what json.Marshal writes for it.
func plain[T string | []byte](b T) bool {
	for i := 0; i < len(b); i++ {
		if c := b[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendQuoted appends s as json.Marshal encodes it.
func appendQuoted(dst []byte, s string) []byte {
	if plain(s) {
		return append(append(append(dst, '"'), s...), '"')
	}
	b, _ := json.Marshal(s) // a string always encodes
	return append(dst, b...)
}

// decodeString decodes a JSON string the scanner accepted.
func decodeString(quoted []byte) string {
	var s string
	_ = json.Unmarshal(quoted, &s) // valid by the scan
	return s
}

// maxDepth is encoding/json's nesting limit: a payload nested deeper is
// one the decoder refuses.
const maxDepth = 10000

// scanner validates JSON as encoding/json does, collecting the top-level
// object's members on the way.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) peek(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// value scans one value inside a container at depth.
func (s *scanner) value(depth int) bool {
	if s.i == len(s.b) {
		return false
	}
	switch c := s.b[s.i]; {
	case c == '{':
		return s.object(depth+1, nil)
	case c == '[':
		return s.array(depth + 1)
	case c == '"':
		return s.str()
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return false
}

// object scans an object at depth; with sp set it records the members.
func (s *scanner) object(depth int, sp *splicer) bool {
	if depth > maxDepth {
		return false
	}
	s.i++ // '{'
	s.space()
	if s.peek('}') {
		s.i++
		return true
	}
	for {
		if !s.peek('"') {
			return false
		}
		start := s.i
		if !s.str() {
			return false
		}
		key := s.b[start:s.i]
		s.space()
		if !s.peek(':') {
			return false
		}
		s.i++
		s.space()
		at := s.i
		if !s.value(depth) {
			return false
		}
		if sp != nil {
			sp.members = append(sp.members, newMember(key, s.b[at:s.i]))
		}
		s.space()
		switch {
		case s.peek(','):
			s.i++
			s.space()
		case s.peek('}'):
			s.i++
			return true
		default:
			return false
		}
	}
}

// newMember names a member. A key that needs no escaping is its own
// encoding; any other is decoded and encoded again, as the map the
// decoding relay built re-encoded it.
func newMember(key, value []byte) member {
	if inner := key[1 : len(key)-1]; plain(inner) {
		return member{name: inner, key: key, value: value}
	}
	name := decodeString(key)
	return member{name: []byte(name), key: appendQuoted(nil, name), value: value}
}

func (s *scanner) array(depth int) bool {
	if depth > maxDepth {
		return false
	}
	s.i++ // '['
	s.space()
	if s.peek(']') {
		s.i++
		return true
	}
	for {
		if !s.value(depth) {
			return false
		}
		s.space()
		switch {
		case s.peek(','):
			s.i++
			s.space()
		case s.peek(']'):
			s.i++
			return true
		default:
			return false
		}
	}
}

func (s *scanner) str() bool {
	s.i++ // '"'
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return true
		case c < 0x20:
			return false
		case c != '\\':
			s.i++
			continue
		}
		if s.i+1 == len(s.b) {
			return false
		}
		switch s.b[s.i+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			s.i += 2
		case 'u':
			if s.i+6 > len(s.b) {
				return false
			}
			for _, h := range s.b[s.i+2 : s.i+6] {
				if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
					return false
				}
			}
			s.i += 6
		default:
			return false
		}
	}
	return false
}

func (s *scanner) number() bool {
	if s.peek('-') {
		s.i++
	}
	switch {
	case s.peek('0'):
		s.i++
	case s.i < len(s.b) && '1' <= s.b[s.i] && s.b[s.i] <= '9':
		s.digits()
	default:
		return false
	}
	if s.peek('.') {
		s.i++
		if !s.digits() {
			return false
		}
	}
	if s.peek('e') || s.peek('E') {
		s.i++
		if s.peek('+') || s.peek('-') {
			s.i++
		}
		if !s.digits() {
			return false
		}
	}
	return true
}

// digits scans a run of digits and reports whether there was one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}
