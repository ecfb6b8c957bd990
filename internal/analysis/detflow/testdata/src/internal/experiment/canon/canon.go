// Fixture: internal/experiment/canon sits under internal/experiment, so
// it is both a simulation package and a canonical-bytes package.
package canon

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// CanonicalKey is on the encoding path by name, and does everything
// wrong: unsorted map iteration and shortest-representation floats.
func CanonicalKey(params map[string]float64) string {
	var b strings.Builder
	for k, v := range params {
		fmt.Fprintf(&b, "%s=%v;", k, v) // want `map iteration order is random but reaches Fprintf in CanonicalKey` `CanonicalKey formats a float with %v`
	}
	return b.String()
}

// CanonicalKeySorted is the sanctioned shape: collect, sort, emit with a
// fixed-width float encoding.
func CanonicalKeySorted(params map[string]float64) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(params[k], 'g', 17, 64))
		b.WriteByte(';')
	}
	return b.String()
}

// normalizeWeights shows the %g variant of the float finding.
func normalizeWeights(total float64) string {
	return fmt.Sprintf("total=%g", total) // want `normalizeWeights formats a float with %g`
}

// debugDump is not canon-named, but this is a simulation package, where
// map order must not reach printed output either.
func debugDump(params map[string]float64) {
	for k, v := range params {
		fmt.Println(k, v) // want `map iteration order is random but reaches Println in debugDump`
	}
}

// encodeLegacy demonstrates a justified suppression.
func encodeLegacy(params map[string]string) string {
	var b strings.Builder
	for k, v := range params {
		//lint:allow detflow keys are single-element maps in the legacy path
		b.WriteString(k + "=" + v)
	}
	return b.String()
}
