package service

import (
	"encoding/json"
	"strings"
	"testing"
)

// expandOne is a helper returning the single unit a spec expands to.
func expandOne(t *testing.T, spec JobSpec) UnitSpec {
	t.Helper()
	units, err := ExpandUnits(spec, testMaxUnits)
	if err != nil {
		t.Fatalf("ExpandUnits: %v", err)
	}
	if len(units) != 1 {
		t.Fatalf("expanded to %d units, want 1", len(units))
	}
	return units[0]
}

// TestWireRoundTripPreservesKey is the soundness condition of cache
// federation: a unit shipped to another node as JSON and resolved there must
// land on the same content-addressed key, or coordinator and backend would
// silently disagree about what is cached.
func TestWireRoundTripPreservesKey(t *testing.T) {
	specs := map[string]JobSpec{
		"run":    {Model: "2P", Bench: "300.twolf", Seed: 9},
		"verify": {Model: "base", Bench: "181.mcf", Verify: true},
		"sweep": {Kind: "sweep", Model: "2P", Bench: "300.twolf",
			Sweep: &SweepAxes{CQSizes: []int{48}}},
		"fuzz": {Kind: "fuzz", Seed: 11,
			Fuzz: &FuzzSpec{Programs: 100, ChunkSize: 100, Smoke: true, Shrink: true}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			u := expandOne(t, spec)
			raw, err := json.Marshal(u.Wire())
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var w WireUnit
			if err := json.Unmarshal(raw, &w); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			got, err := w.Resolve()
			if err != nil {
				t.Fatalf("resolve: %v", err)
			}
			if got.Key() != u.Key() {
				t.Fatalf("key changed across the wire:\n  sent     %s\n  resolved %s",
					u.Key(), got.Key())
			}
		})
	}
}

// TestWireResolveRejectsInvalid checks a backend refuses malformed units
// instead of simulating garbage.
func TestWireResolveRejectsInvalid(t *testing.T) {
	validUnit := expandOne(t, JobSpec{Model: "2P", Bench: "300.twolf"})
	valid := validUnit.Wire()

	cases := map[string]struct {
		mutate func(*WireUnit)
		want   string
	}{
		"unknown model": {func(w *WireUnit) { w.Model = "8-wide-dream" }, "model"},
		"unknown bench": {func(w *WireUnit) { w.Bench = "999.vapor" }, "bench"},
		"zero config": {func(w *WireUnit) {
			w.Config.MaxCycles = 0
		}, "max_cycles"},
		"empty fuzz": {func(w *WireUnit) {
			w.Fuzz = &FuzzUnit{Programs: 0}
		}, "fuzz"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			w := valid
			tc.mutate(&w)
			if _, err := w.Resolve(); err == nil {
				t.Fatalf("Resolve accepted %s", name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
