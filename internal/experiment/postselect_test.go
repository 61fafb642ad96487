package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/surfacecode"
)

// TestRunPostSelectionZeroShots: a zero-shot *run* (not just the zero-value
// struct, which extensions_test covers) must produce well-defined (zero)
// rates instead of dividing by zero.
func TestRunPostSelectionZeroShots(t *testing.T) {
	ps := RunPostSelection(Config{Distance: 3, Cycles: 1, P: 1e-3, Shots: 0, Seed: 1}, 2, 2)
	if ps.Shots != 0 || ps.Kept != 0 {
		t.Fatalf("zero-shot run counted shots: %+v", ps)
	}
	if ps.LERAll() != 0 || ps.LERKept() != 0 || ps.DiscardFraction() != 0 {
		t.Errorf("zero-shot rates not zero: all=%v kept=%v discard=%v",
			ps.LERAll(), ps.LERKept(), ps.DiscardFraction())
	}
	if s := ps.String(); !strings.Contains(s, "shots 0") {
		t.Errorf("String() broke on the empty run:\n%s", s)
	}
}

// TestPostSelectionAllShotsDiscarded: with flips = 0 every round trips the
// detector on every qubit, so window = 1 discards everything; LERKept must
// stay defined (0) with Kept == 0.
func TestPostSelectionAllShotsDiscarded(t *testing.T) {
	ps := RunPostSelection(Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 40, Seed: 3}, 1, 0)
	if ps.Kept != 0 {
		t.Fatalf("kept %d shots with an always-firing detector", ps.Kept)
	}
	if ps.DiscardFraction() != 1 {
		t.Errorf("discard fraction %v, want 1", ps.DiscardFraction())
	}
	if ps.LERKept() != 0 {
		t.Errorf("LERKept %v over zero kept shots, want 0", ps.LERKept())
	}
	if ps.LogicalErrorsKept != 0 {
		t.Errorf("counted %d kept-shot errors with nothing kept", ps.LogicalErrorsKept)
	}
}

// TestPostSelectionKeepsConsistentCounts: the generic invariants on a normal
// run — kept <= shots, kept errors <= all errors, both LERs in [0, 1], and a
// loose detector keeps everything.
func TestPostSelectionCounts(t *testing.T) {
	ps := RunPostSelection(Config{Distance: 3, Cycles: 2, P: 3e-3, Shots: 60, Seed: 7}, 2, 2)
	if ps.Kept > ps.Shots || ps.LogicalErrorsKept > ps.LogicalErrorsAll {
		t.Fatalf("inconsistent counts: %+v", ps)
	}
	if ps.LERAll() < 0 || ps.LERAll() > 1 || ps.LERKept() < 0 || ps.LERKept() > 1 {
		t.Errorf("rates out of range: %v, %v", ps.LERAll(), ps.LERKept())
	}
	// An unsatisfiable detector (more flips than a data qubit has neighbors)
	// keeps every shot.
	ps = RunPostSelection(Config{Distance: 3, Cycles: 1, P: 1e-3, Shots: 20, Seed: 7}, 1, 5)
	if ps.Kept != ps.Shots {
		t.Errorf("unsatisfiable detector discarded %d shots", ps.Shots-ps.Kept)
	}
}

// TestVisibilityZeroEpisodes: Percent over an empty distribution is all
// zeros, and String still renders.
func TestVisibilityZeroEpisodes(t *testing.T) {
	v := &VisibilityStats{InvisibleRounds: make([]int64, 4)}
	for i, p := range v.Percent() {
		if p != 0 {
			t.Errorf("Percent[%d] = %v with zero episodes", i, p)
		}
	}
	if s := v.String(); !strings.Contains(s, "(0 episodes)") {
		t.Errorf("String() on the empty distribution:\n%s", s)
	}
	// Zero shots: no episodes can be observed at all.
	mv := MeasureVisibility(3, 5, 0, 1e-2, 1, 3)
	if mv.Episodes != 0 {
		t.Errorf("zero-shot visibility run observed %d episodes", mv.Episodes)
	}
}

// TestVisibilityDistribution: a normal run's distribution is normalized and
// the overflow bucket catches long episodes.
func TestVisibilityDistribution(t *testing.T) {
	v := MeasureVisibility(3, 20, 40, 5e-3, 9, 2)
	if v.Episodes == 0 {
		t.Fatal("no leakage episodes at p=5e-3 over 800 shot-rounds")
	}
	var sum int64
	for _, c := range v.InvisibleRounds {
		if c < 0 {
			t.Fatalf("negative bucket count: %v", v.InvisibleRounds)
		}
		sum += c
	}
	if sum != v.Episodes {
		t.Errorf("bucket sum %d != episodes %d", sum, v.Episodes)
	}
	total := 0.0
	for _, p := range v.Percent() {
		total += p
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("percentages sum to %v", total)
	}
	// record clamps overflow into the last bucket.
	w := &VisibilityStats{InvisibleRounds: make([]int64, 3)}
	w.record(10)
	if w.InvisibleRounds[2] != 1 || w.Episodes != 1 {
		t.Errorf("overflow episode not clamped: %+v", w)
	}
}

// TestScalarStudiesPinned pins post-selection and the visibility study bit
// for bit: the SHA-256 of each study's JSON result over both distances,
// both memory bases and two error rates (post-selection), and both
// distances at two error rates (visibility). Their other tests check
// invariants only and would not notice a change to their random streams.
func TestScalarStudiesPinned(t *testing.T) {
	hash := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	post := map[string]string{
		"d3-Z-p0.001": "f07bff9b8f732022a00185e6cd567188694d42286deafd8f6946215c642fdef4",
		"d3-Z-p0.003": "d9884363eb626e13a03dabe77db9085a550e42b10d7d792ec949c4d2061bf0fa",
		"d3-X-p0.001": "422b4c600cf1e7b68e3952098d2fc37f9a5343eb6633377f3136d54c5f22f308",
		"d3-X-p0.003": "69c1d418eb4164f193ee1f59783e3ac43931b04892cec5572c120efe432b36c8",
		"d5-Z-p0.001": "c7b826ed3467aa977ad7ab4d800722356de65a50a13e011f2981c44794d36d49",
		"d5-Z-p0.003": "9fb9454827d9a6aa0e173d9334130b3668c6a579ce83c4e4858afc233ccd77ac",
		"d5-X-p0.001": "1061652879da8ff1b3eafb7c44da28504c171d040e18b5a828e98cb69edde509",
		"d5-X-p0.003": "74539a665de3a9f6597c15ec0983cd4c058afb13d1c6b80ad45154f7eef42bee",
	}
	for _, d := range []int{3, 5} {
		for _, basis := range []surfacecode.Kind{surfacecode.KindZ, surfacecode.KindX} {
			for _, p := range []float64{1e-3, 3e-3} {
				name := fmt.Sprintf("d%d-%v-p%g", d, basis, p)
				ps := RunPostSelection(Config{Distance: d, Cycles: 2, P: p, Basis: basis, Shots: 200, Seed: 2023}, 2, 2)
				if got := hash(ps); got != post[name] {
					t.Errorf("post-selection %s: hash %s, pinned %s\n%+v", name, got, post[name], *ps)
				}
			}
		}
	}
	vis := map[string]string{
		"d3-p0.002": "de4e7f4cba5d539bcb3fb8bbdc585a9ffb8b166f00e1a55b74c7743c174207ad",
		"d3-p0.005": "afbbbb7cf0ced3441153267783e6936d7dd2a11e1ad54f1508ddcf899c244b82",
		"d5-p0.002": "a46528ef40c6dcdd1c08e920c252bc002e05b51819d33f12664309b526c51203",
		"d5-p0.005": "fe78bab7d1b1b85a2ff69401418824019216031838a9aece217208cdf1b2f972",
	}
	for _, d := range []int{3, 5} {
		for _, p := range []float64{2e-3, 5e-3} {
			name := fmt.Sprintf("d%d-p%g", d, p)
			v := MeasureVisibility(d, 20, 100, p, 2023, 3)
			if got := hash(v); got != vis[name] {
				t.Errorf("visibility %s: hash %s, pinned %s\n%+v", name, got, vis[name], *v)
			}
		}
	}
}

// TestPostSelectionRunsOnProfile: post-selection simulates and decodes a
// device profile as itself. Three data qubits at ten times the base rates
// fail more shots and trip the leakage detector on more of them than the
// uniform base does on the same streams; the profile's matching priors fail
// fewer of those shots than explicit unit weights do; and a uniform profile
// reads the profile-free result exactly.
func TestPostSelectionRunsOnProfile(t *testing.T) {
	const d, p = 5, 1e-3
	cfg := Config{Distance: d, Cycles: 4, P: p, Shots: 400, Seed: 9}
	plain := *RunPostSelection(cfg, 2, 2)
	uni := cfg
	uni.Profile = uniformProfile(t, d, p)
	if got := *RunPostSelection(uni, 2, 2); got != plain {
		t.Errorf("uniform profile: %+v, profile-free %+v", got, plain)
	}
	hot := cfg
	hot.Profile = hotspotProfile(t, d, p, 3, 10)
	got := *RunPostSelection(hot, 2, 2)
	if got.LogicalErrorsAll <= plain.LogicalErrorsAll || got.Kept >= plain.Kept {
		t.Errorf("hotspot profile: %+v, not worse than its uniform base's %+v", got, plain)
	}
	flat := hot
	flat.Decoder.SpaceWeights = make([]float64, d*d)
	for q := range flat.Decoder.SpaceWeights {
		flat.Decoder.SpaceWeights[q] = 1
	}
	if unit := *RunPostSelection(flat, 2, 2); got.LogicalErrorsAll >= unit.LogicalErrorsAll {
		t.Errorf("hotspot profile: %d errors with its priors, %d with unit weights", got.LogicalErrorsAll, unit.LogicalErrorsAll)
	}
}
