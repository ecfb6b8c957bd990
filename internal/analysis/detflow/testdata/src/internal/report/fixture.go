// Fixture: taint sources defined in another package. Stamp returns a
// wall-clock-derived string (its TaintFact is what the experiment
// fixture's one-call-deep case consumes); Label is deterministic.
// internal/report is not a simulation package, so its time.Now calls
// are not banned: nothing in this file may be flagged.
package report

import "time"

// Stamp's return value derives from time.Now: TaintFact exported.
func Stamp() string {
	return time.Now().Format(time.RFC3339)
}

// Indirect launders Stamp through a local: still tainted (local
// fixpoint plus assignment transfer).
func Indirect() string {
	s := Stamp()
	return s
}

// Label is deterministic: no fact.
func Label(name string) string {
	return "report:" + name
}
