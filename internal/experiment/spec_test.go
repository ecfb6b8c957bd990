package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clustereval/internal/machine"
)

// TestNormalizeLeavesSharedMachinesIntact normalises every spec of the
// cache-key fixtures, which Normalize validates against the shared preset
// machines, and then requires each shared machine to still equal a fresh
// build of its preset: a kind whose FromSpec wrote to the machine it was
// handed would change every later canonicalisation.
func TestNormalizeLeavesSharedMachinesIntact(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("testdata", "cachekeys.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name string          `json:"name"`
		Spec json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(buf, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden fixture")
	}
	for _, tc := range cases {
		var spec Spec
		if err := json.Unmarshal(tc.Spec, &spec); err != nil {
			t.Fatalf("%s: fixture spec: %v", tc.Name, err)
		}
		if _, err := spec.Normalize(); err != nil {
			t.Fatalf("%s: Normalize: %v", tc.Name, err)
		}
	}
	shared := presetMachines()
	if len(shared) != len(machine.PresetNames()) {
		t.Fatalf("%d shared machines for %d presets", len(shared), len(machine.PresetNames()))
	}
	for _, slug := range machine.PresetNames() {
		fresh, ok := machine.Preset(slug)
		if !ok {
			t.Fatalf("preset %s does not build", slug)
		}
		if !reflect.DeepEqual(shared[slug], fresh) {
			t.Errorf("shared machine %s no longer equals a fresh Build()", slug)
		}
	}
}
