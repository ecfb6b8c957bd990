package experiment_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"clustereval/internal/experiment"
	"clustereval/internal/faultsim"
)

const appResultsGolden = "testdata/appresults.golden"

// appGoldenSum canonicalizes and runs spec and returns the SHA-256 of the
// result JSON, or of the error text when the spec is refused or the run
// fails, so a changed error is as visible as a changed number.
func appGoldenSum(spec experiment.Spec) string {
	var buf []byte
	canon, _, err := experiment.Canonicalize(spec)
	if err == nil {
		var res *experiment.Result
		if res, err = experiment.Run(context.Background(), canon); err == nil {
			buf, err = json.Marshal(res)
		}
	}
	if err != nil {
		buf = []byte("error: " + err.Error())
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestAppResultsGolden pins the "app" kind itself, not its rendering:
// the SHA-256 of every catalog application's result on every machine
// preset, without faults and with a link that adds latency (the one fault
// an app result sees), over the whole sweep and at 16 nodes. `-update`
// rewrites the golden.
func TestAppResultsGolden(t *testing.T) {
	var want map[string]string
	if !*update {
		want = readHashGolden(t, appResultsGolden)
	}
	faults := []struct {
		name string
		spec *faultsim.Spec
	}{
		{"nofault", nil},
		{"link", &faultsim.Spec{Links: []faultsim.LinkFault{{Src: 0, Dst: 1, ExtraLatencySeconds: 0.001}}}},
	}
	var golden strings.Builder
	cases := 0
	for _, app := range experiment.AppNames() {
		for _, preset := range []string{"cte-arm", "mn4", "thunderx2", "fugaku"} {
			for _, f := range faults {
				for _, nodes := range []int{0, 16} {
					name := fmt.Sprintf("%s/%s/%s/nodes%d", app, preset, f.name, nodes)
					got := appGoldenSum(experiment.Spec{
						Kind: "app", App: app, Machine: preset, Nodes: nodes, Faults: f.spec,
					})
					fmt.Fprintf(&golden, "%s %s\n", name, got)
					cases++
					if !*update && got != want[name] {
						t.Errorf("%s drifted:\n got  %s\n want %s", name, got, want[name])
					}
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(appResultsGolden, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != cases {
		t.Errorf("%s has %d entries for %d cases: regenerate with -update", appResultsGolden, len(want), cases)
	}
}
