package campaign

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/service"
)

func TestManifestExpandGrid(t *testing.T) {
	man := Manifest{
		Name:      "grid",
		Base:      service.ConfigSpec{Cycles: 1, P: 2e-3, Shots: 128, Seed: 5},
		Distances: []int{3, 5},
		Policies:  []string{"eraser", "nolrc"},
		Precision: service.Precision{},
	}
	pts, err := man.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("expanded to %d points, want 4", len(pts))
	}
	keys := map[string]bool{}
	for _, pt := range pts {
		if keys[pt.Key] {
			t.Fatalf("duplicate key %s", pt.Key)
		}
		keys[pt.Key] = true
		if !strings.HasPrefix(pt.Label, "d=") {
			t.Fatalf("unexpected auto label %q", pt.Label)
		}
		if pt.Config.Shots != 128 || pt.Config.Seed != 5 {
			t.Fatalf("base fields not inherited: %+v", pt.Config)
		}
	}
	if pts[0].Label != "d=3/eraser/p=0.002" {
		t.Fatalf("label = %q", pts[0].Label)
	}
	// Grid order is distances-major, policies next.
	if pts[1].Label != "d=3/nolrc/p=0.002" || pts[2].Label != "d=5/eraser/p=0.002" {
		t.Fatalf("unexpected grid order: %q, %q", pts[1].Label, pts[2].Label)
	}
}

func TestManifestExplicitPointsAndPrecisionOverride(t *testing.T) {
	tight := service.Precision{TargetCIHalfWidth: 0.001}
	man := Manifest{
		Base:      service.ConfigSpec{Distance: 3, Cycles: 1, P: 2e-3, Shots: 64, Policy: "eraser"},
		Precision: service.Precision{TargetCIHalfWidth: 0.02},
		Points: []PointSpec{
			{Label: "ablation", Config: service.ConfigSpec{Distance: 3, Cycles: 1, P: 4e-3, Shots: 64, Policy: "optimal"}, Precision: &tight},
		},
	}
	pts, err := man.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("expanded to %d points, want 2", len(pts))
	}
	if pts[1].Label != "ablation" {
		t.Fatalf("explicit label = %q", pts[1].Label)
	}
	if pts[0].Prec.TargetCIHalfWidth != 0.02 || pts[1].Prec.TargetCIHalfWidth != 0.001 {
		t.Fatalf("precision override not applied: %+v vs %+v", pts[0].Prec, pts[1].Prec)
	}
}

func TestManifestExpandRejectsDuplicatesAndBadSpecs(t *testing.T) {
	// Two axis values resolving to the same key (duplicate distance).
	dup := Manifest{
		Base:      service.ConfigSpec{Cycles: 1, P: 2e-3, Shots: 64, Policy: "eraser"},
		Distances: []int{3, 3},
	}
	if _, err := dup.Expand(); err == nil || !strings.Contains(err.Error(), "same config key") {
		t.Fatalf("duplicate points not rejected: %v", err)
	}
	// Unknown policy fails point validation.
	bad := Manifest{
		Base:     service.ConfigSpec{Distance: 3, Cycles: 1, P: 2e-3, Shots: 64},
		Policies: []string{"wat"},
	}
	if _, err := bad.Expand(); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("bad policy not rejected: %v", err)
	}
	// A manifest that expands to nothing is an error, not an empty campaign.
	if _, err := (Manifest{Base: service.ConfigSpec{}}).Expand(); err == nil {
		t.Fatal("zero-point manifest not rejected")
	}
}

func TestFigure14Manifest(t *testing.T) {
	man := Figure14Manifest([]int{3, 5}, 1e-3,
		service.ConfigSpec{Cycles: 1, Shots: 128, Seed: 9}, service.Precision{})
	pts, err := man.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("figure-14 manifest expands to %d points, want 2 distances x 4 policies = 8", len(pts))
	}
}

// fuzzMaxPoints bounds the grids the fuzz harness expands: large grids only
// cost time.
const fuzzMaxPoints = 64

// FuzzManifestExpand: a POST /v1/campaign manifest is either rejected, or
// every expanded point validates, resolves to between 1 and
// experiment.MaxRounds rounds, carries a label and its config's content
// key, and no two points share a key. The seed corpus in testdata/fuzz
// holds Figure 14, explicit points with a precision override, a duplicate
// point, negative cycle and round counts, a distance above the cap, and a
// grid over the size bound.
func FuzzManifestExpand(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Manifest
		if json.Unmarshal(data, &m) != nil || !fuzzSized(m) {
			return
		}
		pts, err := m.Expand()
		if err != nil {
			return
		}
		seen := make(map[string]string, len(pts))
		for _, p := range pts {
			if err := p.Config.Validate(); err != nil {
				t.Fatalf("point %q does not validate: %v", p.Label, err)
			}
			if n := p.Config.NumRounds(); n < 1 || n > experiment.MaxRounds {
				t.Fatalf("point %q resolves to %d rounds", p.Label, n)
			}
			if p.Label == "" {
				t.Fatalf("point %+v has no label", p.Spec)
			}
			if k := p.Config.Key(); k != p.Key {
				t.Fatalf("point %q keyed %q, its config keys to %q", p.Label, p.Key, k)
			}
			if prev, dup := seen[p.Key]; dup {
				t.Fatalf("points %q and %q share key %s", prev, p.Label, p.Key)
			}
			seen[p.Key] = p.Label
		}
	})
}

// fuzzSized reports whether the manifest is within the harness bounds.
func fuzzSized(m Manifest) bool {
	grid := 1 // an empty axis keeps the base value: one point
	for _, n := range []int{len(m.Distances), len(m.Policies), len(m.Ps)} {
		grid *= max(n, 1)
		if grid > fuzzMaxPoints {
			return false
		}
	}
	return grid+len(m.Points) <= fuzzMaxPoints
}
