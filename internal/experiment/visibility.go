package experiment

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/analytic"
	"repro/internal/circuit"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// VisibilityStats is the empirical counterpart of Table 2 / Equation 3: for
// every data-qubit leakage episode observed in simulation, how many complete
// rounds the leakage stayed invisible — no detection event on any adjacent
// parity check — before first affecting the syndrome.
type VisibilityStats struct {
	// Episodes is the number of leakage onsets observed.
	Episodes int64
	// InvisibleRounds[r] counts episodes that stayed invisible for exactly r
	// rounds before their first adjacent detection event; the last bucket
	// aggregates longer episodes and episodes that ended (seepage or
	// experiment end) unseen.
	InvisibleRounds []int64
}

// Percent returns the distribution in percent.
func (v *VisibilityStats) Percent() []float64 {
	out := make([]float64, len(v.InvisibleRounds))
	if v.Episodes == 0 {
		return out
	}
	for i, c := range v.InvisibleRounds {
		out[i] = 100 * float64(c) / float64(v.Episodes)
	}
	return out
}

// String renders the measured distribution against Equation 3.
func (v *VisibilityStats) String() string {
	var b strings.Builder
	b.WriteString("Table 2 (empirical): rounds a leaked data qubit stays invisible\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "rounds\tmeasured (%)\tEq. 3 (%)")
	pct := v.Percent()
	for r := 0; r < len(pct)-1; r++ {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", r, pct[r], 100*analytic.PInvisible(r))
	}
	fmt.Fprintf(w, ">=%d\t%.2f\t%.2f\n", len(pct)-1, pct[len(pct)-1],
		100*(1-sumPInvis(len(pct)-1)))
	w.Flush()
	fmt.Fprintf(&b, "(%d episodes)\n", v.Episodes)
	return b.String()
}

func sumPInvis(n int) float64 {
	var s float64
	for r := 0; r < n; r++ {
		s += analytic.PInvisible(r)
	}
	return s
}

// MeasureVisibility runs no-LRC memory experiments and accumulates the
// empirical invisibility distribution. Seepage is disabled so an episode can
// only end by becoming visible or by the experiment finishing; transport is
// disabled so episodes are independent single-qubit affairs, matching the
// analytic model's assumptions.
func MeasureVisibility(d, rounds, shots int, p float64, seed uint64, maxTrack int) *VisibilityStats {
	layout := surfacecode.MustNew(d)
	np := noise.Standard(p)
	np.PSeep = 0
	np.PTransport = 0
	builder := circuit.NewBuilder(layout)
	root := stats.NewRNG(seed, 0xA11CE)

	v := &VisibilityStats{InvisibleRounds: make([]int64, maxTrack+1)}
	// onset[q] is the round the current episode started, or 0 when none.
	onset := make([]int, layout.NumData)
	wasLeaked := make([]bool, layout.NumData)
	var s *sim.Simulator

	for shot := 0; shot < shots; shot++ {
		rng := root.Split(uint64(shot))
		if s == nil {
			s = sim.New(layout, np, rng)
		} else {
			s.Reset(rng)
		}
		for q := range onset {
			onset[q] = 0
			wasLeaked[q] = false
		}
		for r := 1; r <= rounds; r++ {
			res := s.RunRound(builder.Round(circuit.Plan{}))
			for q := 0; q < layout.NumData; q++ {
				leakedNow := s.Leaked(q)
				if leakedNow && !wasLeaked[q] {
					// New episode: the leak happened during round r, so a
					// detection event in round r itself means 0 invisible
					// rounds.
					onset[q] = r
				}
				if onset[q] > 0 {
					fired := false
					for _, st := range layout.DataStabs[q] {
						if res.Events[st] != 0 {
							fired = true
							break
						}
					}
					if fired {
						v.record(r - onset[q])
						onset[q] = 0
					} else if !leakedNow {
						// Episode ended unseen (reset via measurement is
						// impossible without LRCs; this is defensive).
						v.record(maxTrack)
						onset[q] = 0
					}
				}
				wasLeaked[q] = leakedNow
			}
		}
		// Episodes still open at the end of the shot were never seen.
		for q := range onset {
			if onset[q] > 0 {
				v.record(maxTrack)
			}
		}
	}
	return v
}

func (v *VisibilityStats) record(invisible int) {
	if invisible >= len(v.InvisibleRounds) {
		invisible = len(v.InvisibleRounds) - 1
	}
	v.InvisibleRounds[invisible]++
	v.Episodes++
}
