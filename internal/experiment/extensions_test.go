package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/surfacecode"
)

// TestMemoryXNoiseless: memory-X experiments are exact in the absence of
// noise for every policy.
func TestMemoryXNoiseless(t *testing.T) {
	np := noise.Standard(0)
	for _, k := range []core.Kind{core.PolicyNone, core.PolicyAlways, core.PolicyEraser} {
		res := Run(Config{Distance: 3, Cycles: 3, Noise: &np, Shots: 30, Seed: 1,
			Policy: k, Basis: surfacecode.KindX, Workers: 1})
		if res.LogicalErrors != 0 {
			t.Fatalf("%v: noiseless memory-X produced %d logical errors", k, res.LogicalErrors)
		}
	}
}

// TestMemoryXComparableToMemoryZ: both bases suppress errors; their LERs
// agree within a generous factor (the rotated code is not symmetric, but the
// bases should be the same order of magnitude).
func TestMemoryXComparableToMemoryZ(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := Config{Distance: 5, Cycles: 4, P: 1e-3, Shots: 600, Seed: 23,
		Policy: core.PolicyEraser}
	z := Run(base)
	basisX := base
	basisX.Basis = surfacecode.KindX
	x := Run(basisX)
	t.Logf("memory-Z LER=%.4f, memory-X LER=%.4f", z.LER, x.LER)
	if x.LER == 0 && z.LER == 0 {
		return
	}
	lo, hi := z.LER/6-0.005, z.LER*6+0.005
	if x.LER < lo || x.LER > hi {
		t.Errorf("memory-X LER %v implausibly far from memory-Z %v", x.LER, z.LER)
	}
}

// TestVisibilityMatchesEquation3: the measured invisibility distribution
// tracks Equation 3 — the overwhelming majority of leakage episodes are
// visible within one round.
func TestVisibilityMatchesEquation3(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	v := MeasureVisibility(5, 40, 250, 2e-3, 7, 3)
	if v.Episodes < 100 {
		t.Fatalf("too few episodes observed: %d", v.Episodes)
	}
	pct := v.Percent()
	t.Logf("episodes=%d measured=%v analytic=[93.8 5.9 0.4]", v.Episodes, pct)
	// Equation 3's idealization assumes the leak exists for the whole round;
	// in the circuit-level simulation many episodes start mid-extraction, so
	// round-0 visibility sits below the analytic 93.8%. The paper's load-
	// bearing claim — Insight #1, "more than 99% of leakage errors affect
	// syndrome extraction within two rounds" — must still hold to within the
	// idealization gap.
	within2 := pct[0] + pct[1] + pct[2]
	if within2 < 90 {
		t.Errorf("only %.1f%% of episodes visible within two rounds, want > 90%%", within2)
	}
	if pct[0] < 2*100*analytic.PInvisible(1) {
		t.Errorf("round-0 visibility %v%% implausibly low", pct[0])
	}
	// The distribution must decay fast.
	if pct[1] >= pct[0] || pct[2] >= pct[1] {
		t.Errorf("invisibility distribution not decaying: %v", pct)
	}
	if s := v.String(); !strings.Contains(s, "Eq. 3") {
		t.Fatalf("render malformed:\n%s", s)
	}
}

// TestPostSelection: discarding leakage-suspected shots lowers the retained
// LER at the cost of throwing shots away.
func TestPostSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ps := RunPostSelection(Config{Distance: 5, Cycles: 6, P: 1e-3, Shots: 600, Seed: 9},
		2, 2)
	t.Logf("all=%.4f kept=%.4f discard=%.2f", ps.LERAll(), ps.LERKept(), ps.DiscardFraction())
	if ps.DiscardFraction() <= 0 || ps.DiscardFraction() >= 0.9 {
		t.Errorf("discard fraction %v outside sane range", ps.DiscardFraction())
	}
	if ps.LERKept() > ps.LERAll() {
		t.Errorf("post-selection should not raise the retained LER: kept=%v all=%v",
			ps.LERKept(), ps.LERAll())
	}
	if !strings.Contains(ps.String(), "Post-processing") {
		t.Fatal("render malformed")
	}
}

func TestPostSelectionZeroShots(t *testing.T) {
	ps := &PostSelection{}
	if ps.LERAll() != 0 || ps.LERKept() != 0 || ps.DiscardFraction() != 0 {
		t.Fatal("zero-shot guards failed")
	}
}

func TestVisibilityPercentEmpty(t *testing.T) {
	v := &VisibilityStats{InvisibleRounds: make([]int64, 3)}
	for _, p := range v.Percent() {
		if p != 0 {
			t.Fatal("empty stats should be all zero")
		}
	}
	if math.IsNaN(v.Percent()[0]) {
		t.Fatal("NaN in empty percent")
	}
}
