// Fixture: every detflow source reaching the two sink shapes — the
// canonical encoder and the experiment result — plus the cleansing and
// suppression escape hatches. The sinks here are the fixture's own
// Canonicalize and Result; detflow matches them by name and package,
// exactly as it matches the production ones. internal/experiment is a
// simulation package, so each direct source here is also banned on its
// own line.
package experiment

import (
	"math/rand" // want `import of math/rand in a simulation package`
	"sort"
	"strconv"
	"strings"
	"time"

	"internal/report"
)

// hostNow is an injected clock: calls through it taint like time.Now.
var hostNow = time.Now

// Result mimics the production experiment result payload.
type Result struct {
	Summary string
	GBps    float64
}

// Canonicalize is this fixture's canonical encoder (name-matched sink).
func Canonicalize(parts ...string) string {
	return strings.Join(parts, "|")
}

// log is NOT a sink: tainted values may flow to human-facing output.
func log(string) {}

// Direct feeds a wall-clock read straight into the encoder.
func Direct() string {
	return Canonicalize(time.Now().String()) // want `nondeterministic value \(time\.Now\) reaches canonical encoder experiment\.Canonicalize` `call to time\.Now in a simulation package`
}

// OneCallDeep is the seeded acceptance case: the source lives one call
// away, in another package — exactly what the determinism analyzer's
// direct-call scan provably misses.
func OneCallDeep() string {
	return Canonicalize(report.Stamp()) // want `nondeterministic value \(the return value of Stamp — time\.Now\) reaches canonical encoder experiment\.Canonicalize`
}

// TwoCallsDeep rides the laundered variant: the fact chain composes.
func TwoCallsDeep() string {
	return Canonicalize(report.Indirect()) // want `reaches canonical encoder experiment\.Canonicalize`
}

// localStamp seeds the same-package fixpoint.
func localStamp() string {
	return time.Now().String() // want `call to time\.Now in a simulation package`
}

// LocalHelper reaches the sink through a same-package helper.
func LocalHelper() string {
	return Canonicalize(localStamp()) // want `the return value of localStamp — time\.Now`
}

// Chained walks the taint through two assignments.
func Chained() string {
	t := time.Now() // want `call to time\.Now in a simulation package`
	s := t.String()
	return Canonicalize(s) // want `nondeterministic value \(time\.Now\) reaches canonical encoder`
}

// InjectedClock taints through the hostNow binding.
func InjectedClock() string {
	return Canonicalize(hostNow().String()) // want `the injected clock hostNow \(bound to time\.Now\)`
}

// RandKey feeds a PRNG draw into the encoder.
func RandKey() string {
	return Canonicalize(strconv.Itoa(rand.Int())) // want `nondeterministic value \(math/rand\) reaches canonical encoder`
}

// MapOrder accumulates keys in iteration order: ordering taint.
func MapOrder(m map[string]float64) string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return Canonicalize(keys...) // want `nondeterministic value \(map iteration order\) reaches canonical encoder`
}

// MapSorted is the sanctioned collect-sort-emit idiom: non-report.
func MapSorted(m map[string]float64) string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return Canonicalize(keys...)
}

// TaintedResult stores a wall-clock string in the result payload.
func TaintedResult() Result {
	return Result{
		Summary: time.Now().String(), // want `nondeterministic value \(time\.Now\) stored in experiment result Result` `call to time\.Now in a simulation package`
		GBps:    1024,
	}
}

// TaintedFieldWrite races the same rule through a field assignment.
func TaintedFieldWrite(r *Result) {
	r.Summary = report.Stamp() // want `stored in experiment result Result`
}

// CleanResult is derived from the spec alone: non-report.
func CleanResult(name string, gbps float64) Result {
	return Result{Summary: report.Label(name), GBps: gbps}
}

// CleanKey feeds only deterministic inputs to the encoder: non-report.
func CleanKey(name string) string {
	return Canonicalize("spec", name)
}

// HumanOutput sends wall-clock to a non-sink: non-report (sink-gated).
func HumanOutput() {
	log(report.Stamp())
}

// Waived documents a deliberate wall-clock cache key.
func Waived() string {
	//lint:allow detflow the ops dashboard cache is intentionally keyed by wall-clock hour
	return Canonicalize(time.Now().Format("2006010215"))
}
