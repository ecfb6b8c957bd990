package machine

import (
	"sort"
	"strings"
)

// The registry resolves user-supplied machine names (service API specs,
// CLI flags) to the declarative preset definitions in presets.go.
// Presets are constructed on demand so callers can mutate the returned
// Machine (e.g. set Network.Seed) without affecting other callers.

// normalizePreset folds a user-supplied machine name to lookup form.
func normalizePreset(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Preset returns the machine registered under name (canonical slug, full
// system name, or a common alias, case-insensitively). The boolean is
// false when no preset matches.
func Preset(name string) (Machine, bool) {
	slug, ok := PresetSlug(name)
	if !ok {
		return Machine{}, false
	}
	for _, p := range presetDefs {
		if p.Slug == slug {
			return p.Build(), true
		}
	}
	return Machine{}, false
}

// PresetSlug resolves name (slug, alias, or full system name) to the
// preset's canonical slug. The boolean is false when no preset matches.
func PresetSlug(name string) (string, bool) {
	want := normalizePreset(name)
	for _, p := range presetDefs {
		if p.Slug == want {
			return p.Slug, true
		}
		for _, a := range p.Aliases {
			if normalizePreset(a) == want {
				return p.Slug, true
			}
		}
	}
	return "", false
}

// PresetNames returns the canonical slugs of all registered presets,
// sorted, so -list output and error messages are stable regardless of
// registration order.
func PresetNames() []string {
	names := make([]string, len(presetDefs))
	for i, p := range presetDefs {
		names[i] = p.Slug
	}
	sort.Strings(names)
	return names
}
