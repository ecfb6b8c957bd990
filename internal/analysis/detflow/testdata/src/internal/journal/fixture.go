// Fixture: internal/journal produces canonical bytes but is not a
// simulation package, so map order may reach output in an ordinary
// function, but not the output or the results of one whose name puts it
// on an encoding path.
package journal

import "io"

// encodeIndex writes map order into a frame.
func encodeIndex(w io.Writer, index map[string]int64) {
	for name := range index {
		io.WriteString(w, name) // want `map iteration order is random but reaches WriteString in encodeIndex`
	}
}

// dumpIndex is not on an encoding path: non-report.
func dumpIndex(w io.Writer, index map[string]int64) {
	for name := range index {
		io.WriteString(w, name)
	}
}

// fingerprintNames returns its names in map order.
func fingerprintNames(index map[string]int64) []string {
	var names []string
	for name := range index {
		names = append(names, name)
	}
	return names // want `map iteration order is random but reaches the result of fingerprintNames`
}

// normalizeIndex copies by key: a map is unordered, so storing into it
// carries no iteration order. Non-report.
func normalizeIndex(index map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(index))
	for name, off := range index {
		out[name] = off
	}
	return out
}
