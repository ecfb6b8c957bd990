package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"clustereval/internal/faultsim"
	"clustereval/internal/machine"
)

// Spec is the canonical description of one simulation job. Two specs that
// normalise to the same canonical form are the same deterministic
// simulation, so their results are interchangeable — that property is what
// makes clusterd's result cache safe.
//
// The field order is load-bearing: the canonical cache key is the SHA-256
// of this struct's JSON encoding, so reordering or re-tagging fields
// silently invalidates every existing cache entry and journal. The golden
// fixtures in testdata/cachekeys.json pin the encoding.
type Spec struct {
	// Kind selects the experiment; see Kinds().
	Kind string `json:"kind"`
	// Machine is a preset slug ("cte-arm", "mn4", or an alias).
	Machine string `json:"machine,omitempty"`
	// App names the application for kind "app".
	App string `json:"app,omitempty"`
	// Language is "c" or "fortran" for the STREAM kinds.
	Language string `json:"language,omitempty"`
	// Version is "vanilla" or "optimized" for kind "hpcg".
	Version string `json:"version,omitempty"`
	// Nodes is the node count for "hpl" and "hpcg", and an optional probe
	// point for "app" (0 = whole paper sweep).
	Nodes int `json:"nodes,omitempty"`
	// Ranks restricts the "stream" sweep to one thread count (0 = full
	// sweep 1..cores).
	Ranks int `json:"ranks,omitempty"`
	// SizeBytes is the message size for kind "net".
	SizeBytes int64 `json:"size_bytes,omitempty"`
	// Iters is the iteration count for "net" and "fpu" (0 = default).
	Iters int `json:"iters,omitempty"`
	// SrcNode and DstNode are the endpoints for kind "net".
	SrcNode int `json:"src_node,omitempty"`
	DstNode int `json:"dst_node,omitempty"`
	// Seed reseeds the deterministic interconnect noise (0 = paper
	// default). Identical spec+seed always produce identical results.
	Seed uint64 `json:"seed,omitempty"`
	// Faults injects a deterministic fault scenario (straggler nodes,
	// degraded links, hard node failures) into the simulated cluster for
	// kinds that run through the interconnect ("net", "app"). A spec whose
	// faults have no effect canonicalizes to nil, so it shares a cache
	// entry with the unfaulted job.
	Faults *faultsim.Spec `json:"faults,omitempty"`
	// DeadlineMS bounds the job's total lifetime — queue wait plus
	// execution — in milliseconds from submission; 0 means no deadline
	// (the service's JobTimeout still applies). Every kind accepts it.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ValidationError marks a spec the registry refuses to run; clusterd's
// HTTP layer turns it into a 400.
type ValidationError struct{ msg string }

func (e *ValidationError) Error() string { return e.msg }

func invalidf(format string, args ...any) error {
	return &ValidationError{msg: fmt.Sprintf(format, args...)}
}

// Normalize validates the spec against its kind's registry definition and
// returns its canonical form: names folded to their canonical slugs and
// every defaultable field filled in, so equal simulations map to equal
// specs.
func (s Spec) Normalize() (Spec, error) {
	n := s
	n.Kind = strings.ToLower(strings.TrimSpace(s.Kind))
	n.App = strings.ToLower(strings.TrimSpace(s.App))
	n.Language = strings.ToLower(strings.TrimSpace(s.Language))
	n.Version = strings.ToLower(strings.TrimSpace(s.Version))

	def, ok := Lookup(n.Kind)
	if !ok {
		return Spec{}, invalidf("unknown kind %q (valid: %s)", s.Kind, strings.Join(Kinds(), " "))
	}

	slug, err := presetSlug(n.Machine)
	if err != nil {
		return Spec{}, err
	}
	n.Machine = slug
	m := presetMachines()[slug] // shared: validation only reads it

	if err := rejectUnusedFields(n, def); err != nil {
		return Spec{}, err
	}
	if def.uses("faults") && n.Faults != nil {
		if err := n.Faults.Validate(m.Nodes); err != nil {
			return Spec{}, invalidf("invalid fault spec on %s: %v", m.Name, err)
		}
	}
	// Canonicalize the fault spec: entries sorted, no-op entries dropped,
	// and an effect-free spec folded to nil so it cannot split the cache.
	n.Faults = n.Faults.Canonical()

	if n.DeadlineMS < 0 {
		return Spec{}, invalidf("negative deadline_ms %d", n.DeadlineMS)
	}

	// Kind-specific validation and defaults through the typed params.
	p := def.New()
	if err := p.FromSpec(n, m); err != nil {
		return Spec{}, err
	}
	p.ApplyTo(&n)
	return n, nil
}

// rejectUnusedFields refuses nonzero values in fields the kind does not
// consume. Silently dropping them would let two different-looking specs
// collide on one cache entry.
func rejectUnusedFields(n Spec, def *Definition) error {
	if !def.uses("app") && n.App != "" {
		return invalidf("field app not used by kind %q", n.Kind)
	}
	if !def.uses("language") && n.Language != "" {
		return invalidf("field language not used by kind %q", n.Kind)
	}
	if !def.uses("version") && n.Version != "" {
		return invalidf("field version not used by kind %q", n.Kind)
	}
	if !def.uses("nodes") && n.Nodes != 0 {
		return invalidf("field nodes not used by kind %q", n.Kind)
	}
	if !def.uses("ranks") && n.Ranks != 0 {
		return invalidf("field ranks not used by kind %q", n.Kind)
	}
	if !def.uses("size_bytes") && n.SizeBytes != 0 {
		return invalidf("field size_bytes not used by kind %q", n.Kind)
	}
	if !def.uses("iters") && n.Iters != 0 {
		return invalidf("field iters not used by kind %q", n.Kind)
	}
	if !def.uses("src_node") && (n.SrcNode != 0 || n.DstNode != 0) {
		return invalidf("fields src_node/dst_node not used by kind %q", n.Kind)
	}
	if !def.uses("faults") && !n.Faults.Zero() {
		return invalidf("field faults not used by kind %q", n.Kind)
	}
	return nil
}

// presetSlug folds the spec's machine field (empty = cte-arm), a slug,
// alias or system name, to its canonical preset slug.
func presetSlug(name string) (string, error) {
	if name == "" {
		name = "cte-arm"
	}
	slug, ok := machine.PresetSlug(name)
	if !ok {
		return "", invalidf("unknown machine %q (valid: %s)",
			name, strings.Join(machine.PresetNames(), " "))
	}
	return slug, nil
}

// presetMachines holds one machine per preset slug, built once, for
// Normalize. Building a preset deep-copies its slices and power map, and
// every request is canonicalised at least once, yet every kind's
// FromSpec only reads the machine. Nothing may modify these machines.
var presetMachines = sync.OnceValue(func() map[string]machine.Machine {
	out := map[string]machine.Machine{}
	for _, slug := range machine.PresetNames() {
		out[slug], _ = machine.Preset(slug)
	}
	return out
})

// resolveMachine builds the spec's machine preset as a private copy, for
// callers that set its seed or fault model.
func resolveMachine(name string) (machine.Machine, error) {
	slug, err := presetSlug(name)
	if err != nil {
		return machine.Machine{}, err
	}
	m, _ := machine.Preset(slug)
	return m, nil
}

// Canonicalize normalises the spec and derives its content address: the
// SHA-256 of the canonical JSON encoding. The address is the cache key, so
// any two submissions of the same deterministic simulation — whatever
// aliases or omitted defaults they used — collapse onto one cache entry.
//
// The deadline is stripped before hashing: it can only change *whether* a
// job finishes, never what result it produces, and only successful runs
// — where the deadline demonstrably did not change the outcome — are
// ever cached. Folding it away lets a deadlined resubmission of a
// previously completed spec answer from the cache in microseconds.
func Canonicalize(spec Spec) (Spec, string, error) {
	n, err := spec.Normalize()
	if err != nil {
		return Spec{}, "", err
	}
	keySpec := n
	keySpec.DeadlineMS = 0
	buf, err := json.Marshal(keySpec)
	if err != nil {
		return Spec{}, "", fmt.Errorf("experiment: encoding canonical spec: %w", err)
	}
	sum := sha256.Sum256(buf)
	return n, hex.EncodeToString(sum[:]), nil
}
