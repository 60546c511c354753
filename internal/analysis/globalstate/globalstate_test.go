package globalstate_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/globalstate"
	"repro/internal/analysis/registry"
)

// TestGlobalState covers the inventory rules: mutable shapes and written
// scalars are flagged, inert config and error sentinels are exempt, and
// //ftl:shardsafe needs a reason. The analyzer is resolved through the
// registry so registration is part of what the test proves.
func TestGlobalState(t *testing.T) {
	a := registry.Get("globalstate")
	if a == nil {
		t.Fatal("globalstate is not registered in internal/analysis/registry")
	}
	old := globalstate.PathPrefixes
	globalstate.PathPrefixes = []string{"g", "hostq"}
	defer func() { globalstate.PathPrefixes = old }()
	analysistest.Run(t, "testdata", a, "g")
}

// TestGlobalStateHostShapes runs the analyzer over a fixture mirroring the
// sharded host frontend (internal/host): the package-level tallies, hash
// folds and clocks its shard workers must NOT share are flagged, and a
// //ftl:shardsafe annotation on an atomic ID source that never feeds
// simulation state is accepted with its reason.
func TestGlobalStateHostShapes(t *testing.T) {
	a := registry.Get("globalstate")
	if a == nil {
		t.Fatal("globalstate is not registered in internal/analysis/registry")
	}
	old := globalstate.PathPrefixes
	globalstate.PathPrefixes = []string{"g", "hostq"}
	defer func() { globalstate.PathPrefixes = old }()
	analysistest.Run(t, "testdata", a, "hostq")
}
