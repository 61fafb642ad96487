package experiment

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/noise"
)

// tinyOpts keeps figure sweeps fast enough for unit tests.
func tinyOpts() Options {
	return Options{Shots: 40, Seed: 12, P: 2e-3, Distances: []int{3}, Cycles: 2, Workers: 0}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.filled(7)
	if o.Shots != 1000 || o.Seed != 2023 || o.P != 1e-3 || o.Cycles != 10 {
		t.Fatalf("bad defaults: %+v", o)
	}
	if len(o.Distances) != 5 || o.Distance != 7 {
		t.Fatalf("bad defaults: %+v", o)
	}
	// Explicit values survive.
	o2 := Options{Shots: 5, Distance: 3}.filled(7)
	if o2.Shots != 5 || o2.Distance != 3 {
		t.Fatalf("explicit options overwritten: %+v", o2)
	}
}

func TestFigure1c(t *testing.T) {
	o := tinyOpts()
	o.Distance = 3
	cs := Figure1c(o)
	if len(cs.Names) != 3 || len(cs.Cycles) != o.Cycles {
		t.Fatalf("malformed series: %+v", cs.Names)
	}
	for _, s := range cs.LER {
		if len(s) != o.Cycles {
			t.Fatal("series length mismatch")
		}
	}
	if out := cs.String(); !strings.Contains(out, "Always-LRCs") {
		t.Fatalf("render missing policy name:\n%s", out)
	}
}

func TestFigure2c(t *testing.T) {
	o := tinyOpts()
	o.Distance = 3
	cs := Figure2c(o)
	if cs.Names[0] != "No Leakage" || cs.Names[1] != "With Leakage" {
		t.Fatalf("wrong series names: %v", cs.Names)
	}
}

func TestFigure5(t *testing.T) {
	o := tinyOpts()
	o.Distance = 3
	rs := Figure5(o)
	rounds := o.Cycles * 3
	if len(rs.LPR[0]) != rounds || len(rs.Data) != rounds || len(rs.Parity) != rounds {
		t.Fatalf("round series lengths wrong")
	}
	if out := rs.String(); !strings.Contains(out, "data") {
		t.Fatalf("render missing split columns:\n%s", out)
	}
}

func TestFigure6(t *testing.T) {
	o := tinyOpts()
	o.Distance = 3
	lpr, ler := Figure6(o)
	if len(lpr.Names) != 2 || len(ler.Names) != 2 {
		t.Fatal("Figure 6 must compare two policies")
	}
}

func TestFigure14AndImprovement(t *testing.T) {
	o := tinyOpts()
	s := Figure14(o)
	if len(s.Names) != 4 || len(s.LER) != 4 {
		t.Fatalf("Figure 14 needs 4 policies, got %v", s.Names)
	}
	imp := s.Improvement(1, 0)
	if len(imp) != len(o.Distances) {
		t.Fatal("Improvement length mismatch")
	}
	if out := s.String(); !strings.Contains(out, "ERASER") {
		t.Fatalf("render missing ERASER:\n%s", out)
	}
}

func TestFigure15DQLRNames(t *testing.T) {
	o := tinyOpts()
	o.Distance = 3
	o.Protocol = circuit.ProtocolDQLR
	rs := Figure15(o)
	joined := strings.Join(rs.Names, ",")
	if !strings.Contains(joined, "DQLR") {
		t.Fatalf("DQLR names missing: %v", rs.Names)
	}
}

func TestFigure16Table4(t *testing.T) {
	o := tinyOpts()
	o.Distance = 3
	rep := Figure16Table4(o)
	if len(rep.Accuracy) != 4 || len(rep.LRCsPerRound) != 4 {
		t.Fatal("report missing policies")
	}
	// Always-LRCs schedules about d^2/2 per round; ERASER far fewer.
	if rep.LRCsPerRound[0][0] < 2 {
		t.Fatalf("Always LRC count %v implausible", rep.LRCsPerRound[0][0])
	}
	if rep.LRCsPerRound[1][0] >= rep.LRCsPerRound[0][0] {
		t.Fatalf("ERASER should schedule fewer LRCs than Always: %v vs %v",
			rep.LRCsPerRound[1][0], rep.LRCsPerRound[0][0])
	}
	out := rep.String()
	for _, want := range []string{"Figure 16", "Table 4", "FPR", "FNR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestFigure16Table4FNRDistanceFallback: when the requested FPR/FNR distance
// is not among the swept distances, the report falls back to the largest
// swept distance instead of silently reporting zeros, and records it.
func TestFigure16Table4FNRDistanceFallback(t *testing.T) {
	o := tinyOpts()
	o.Shots = 60
	o.Distances = []int{3, 5}
	o.Cycles = 3
	// Leave o.Distance unset: filled(11) requests d=11, which is not swept.
	rep := Figure16Table4(o)
	if rep.FNRDistance != 5 {
		t.Fatalf("FNRDistance = %d, want fallback to largest swept distance 5", rep.FNRDistance)
	}
	// The Always policy decides "LRC" for roughly half the (qubit, round)
	// pairs, so its FPR at the fallback distance cannot be zero — the value
	// the silent-miss bug used to report.
	if rep.FPR[0] == 0 {
		t.Fatal("Always FPR = 0 at fallback distance; rates were not recomputed")
	}
	if !strings.Contains(rep.String(), "d=5") {
		t.Fatalf("render does not name the fallback distance:\n%s", rep.String())
	}

	// A swept distance is honored unchanged.
	o.Distance = 3
	if rep := Figure16Table4(o); rep.FNRDistance != 3 {
		t.Fatalf("FNRDistance = %d, want requested swept distance 3", rep.FNRDistance)
	}
}

// TestRoundSeriesStringEdges: the renderer always emits the final round even
// when the tenth-round stride misses it, and survives empty series instead
// of panicking.
func TestRoundSeriesStringEdges(t *testing.T) {
	// 25 rounds: step = 2, so rows land on odd rounds 1,3,...,25 — but with
	// 26 rounds (step 2, rows 1,3,...,25) round 26 is only reachable via the
	// explicit last-round row.
	mk := func(rounds int) *RoundSeries {
		lpr := make([]float64, rounds)
		for i := range lpr {
			lpr[i] = float64(i+1) * 1e-4
		}
		return &RoundSeries{Title: "t", Distance: 3, Names: []string{"s"},
			LPR: [][]float64{lpr}}
	}
	for _, rounds := range []int{5, 10, 26, 30} {
		out := mk(rounds).String()
		if want := "\n" + strconv.Itoa(rounds) + "  "; !strings.Contains(out, want) {
			t.Errorf("%d rounds: render misses the last round:\n%s", rounds, out)
		}
	}
	empty := &RoundSeries{Title: "t", Distance: 3, Names: []string{"s"}, LPR: [][]float64{}}
	if out := empty.String(); !strings.Contains(out, "no rounds") {
		t.Fatalf("empty series render: %q", out)
	}
	emptyInner := &RoundSeries{Title: "t", Distance: 3, Names: []string{"s"},
		LPR: [][]float64{{}}}
	if out := emptyInner.String(); !strings.Contains(out, "no rounds") {
		t.Fatalf("empty inner series render: %q", out)
	}
}

func TestExchangeTransportRuns(t *testing.T) {
	o := tinyOpts()
	o.Transport = noise.TransportExchange
	s := Figure14(o)
	if len(s.LER) != 4 {
		t.Fatal("exchange-transport sweep failed")
	}
}

// TestImprovementBoundsZeroErrorPoints: a distance where one series had no
// logical errors gets a bound through that series' Wilson upper bound
// instead of a ratio of 0 (or of infinity), and a distance where neither
// had any is unresolved.
func TestImprovementBoundsZeroErrorPoints(t *testing.T) {
	s := &DistanceSweep{
		Distances: []int{3, 5, 7, 9},
		Names:     []string{"ERASER", "Always-LRCs"},
		// d=3 both series err, d=5 only Always, d=7 only ERASER, d=9 neither.
		LER:     [][]float64{{0.02, 0, 0.01, 0}, {0.05, 0.04, 0, 0}},
		LERLow:  [][]float64{{0.01, 0, 0.004, 0}, {0.03, 0.02, 0, 0}},
		LERHigh: [][]float64{{0.04, 0.025, 0.03, 0.02}, {0.08, 0.07, 0.02, 0.02}},
	}
	got := s.Improvement(1, 0) // Always / ERASER
	want := []Ratio{{0.05 / 0.02, Exact}, {0.04 / 0.025, AtLeast}, {0.02 / 0.01, AtMost}, {0, Unresolved}}
	for i := range want {
		if math.Abs(got[i].X-want[i].X) > 1e-12 || got[i].Bound != want[i].Bound {
			t.Errorf("d=%d: got %+v, want %+v", s.Distances[i], got[i], want[i])
		}
	}
	for i, w := range []string{"2.5x", "≥ 1.6x", "≤ 2.0x", "unresolved"} {
		if str := got[i].String(); str != w {
			t.Errorf("d=%d: renders %q, want %q", s.Distances[i], str, w)
		}
	}

	for _, tc := range []struct {
		name      string
		rs        []Ratio
		mean, max Ratio
	}{
		{"exact", got[:1], Ratio{2.5, Exact}, Ratio{2.5, Exact}},
		{"lower bound", []Ratio{got[0], got[1], got[3]}, Ratio{(2.5 + 1.6) / 2, AtLeast}, Ratio{2.5, AtLeast}},
		{"upper bound", []Ratio{got[0], got[2]}, Ratio{(2.5 + 2) / 2, AtMost}, Ratio{2.5, AtMost}},
		{"both bounds", got, Ratio{0, Unresolved}, Ratio{0, Unresolved}},
		{"none resolved", got[3:], Ratio{0, Unresolved}, Ratio{0, Unresolved}},
	} {
		mean, max := MeanMax(tc.rs)
		if math.Abs(mean.X-tc.mean.X) > 1e-12 || mean.Bound != tc.mean.Bound ||
			math.Abs(max.X-tc.max.X) > 1e-12 || max.Bound != tc.max.Bound {
			t.Errorf("%s: MeanMax = %+v, %+v; want %+v, %+v", tc.name, mean, max, tc.mean, tc.max)
		}
	}
}
