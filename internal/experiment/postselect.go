package experiment

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// PostSelection implements the prior-work baseline of Section 2.4(1):
// instead of removing leakage in real time, identify leakage-suspected shots
// from the pattern of stabilizer flips after the fact and discard them. This
// is usable for memory experiments but not for program execution — the
// contrast ERASER draws — and the result type quantifies the price: the
// retained-shot logical error rate versus the fraction of shots thrown away.
type PostSelection struct {
	Shots, Kept       int
	LogicalErrorsAll  int
	LogicalErrorsKept int
	// SuspectWindow and SuspectFlips parameterize the detector: a shot is
	// discarded when some data qubit sees at least SuspectFlips adjacent
	// detection events in each of SuspectWindow consecutive rounds.
	SuspectWindow, SuspectFlips int
}

// LERAll is the logical error rate over every shot.
func (p *PostSelection) LERAll() float64 {
	if p.Shots == 0 {
		return 0
	}
	return float64(p.LogicalErrorsAll) / float64(p.Shots)
}

// LERKept is the logical error rate over retained shots.
func (p *PostSelection) LERKept() float64 {
	if p.Kept == 0 {
		return 0
	}
	return float64(p.LogicalErrorsKept) / float64(p.Kept)
}

// DiscardFraction is the fraction of shots thrown away.
func (p *PostSelection) DiscardFraction() float64 {
	if p.Shots == 0 {
		return 0
	}
	return float64(p.Shots-p.Kept) / float64(p.Shots)
}

// String summarizes the trade-off.
func (p *PostSelection) String() string {
	var b strings.Builder
	b.WriteString("Post-processing baseline (Section 2.4, prior work class 1)\n")
	fmt.Fprintf(&b, "  shots %d, kept %d (discarded %.1f%%)\n",
		p.Shots, p.Kept, 100*p.DiscardFraction())
	fmt.Fprintf(&b, "  LER all shots:  %.4f\n", p.LERAll())
	fmt.Fprintf(&b, "  LER kept shots: %.4f\n", p.LERKept())
	b.WriteString("  (post-selection only works offline; ERASER suppresses in real time)\n")
	return b.String()
}

// RunPostSelection executes cfg without LRCs and post-selects shots whose
// syndrome history shows a persistent leakage signature.
func RunPostSelection(cfg Config, window, flips int) *PostSelection {
	layout := surfacecode.MustNew(cfg.Distance)
	rounds := cfg.rounds()
	np := cfg.noiseParams()
	dec := decoder.NewForKind(layout, cfg.Decoder, cfg.Basis)
	builder := circuit.NewBuilder(layout)
	pol := core.NewPolicy(core.PolicyNone, layout, circuit.ProtocolSwap)
	root := stats.NewRNG(cfg.Seed, 0x905e1ec7)

	ps := &PostSelection{Shots: cfg.Shots, SuspectWindow: window, SuspectFlips: flips}
	// streak[q] counts consecutive rounds with >= flips adjacent events.
	streak := make([]int, layout.NumData)
	var events []decoder.Event
	var s *sim.Simulator

	for shot := 0; shot < cfg.Shots; shot++ {
		rng := root.Split(uint64(shot))
		if s == nil {
			s = sim.NewMemory(layout, np, rng, cfg.Basis)
		} else {
			s.Reset(rng)
		}
		pol.Reset()
		suspect := false
		events = events[:0]
		for q := range streak {
			streak[q] = 0
		}
		for r := 1; r <= rounds; r++ {
			res := s.RunRound(builder.Round(pol.PlanRound(r)))
			for i := range layout.Stabilizers {
				if res.Events[i] != 0 && layout.Stabilizers[i].Kind == cfg.Basis {
					events = append(events, decoder.Event{Z: layout.KindOrdinal(cfg.Basis, i), Round: r})
				}
			}
			for q := 0; q < layout.NumData; q++ {
				n := 0
				for _, st := range layout.DataStabs[q] {
					if res.Events[st] != 0 {
						n++
					}
				}
				if n >= flips {
					streak[q]++
					if streak[q] >= window {
						suspect = true
					}
				} else {
					streak[q] = 0
				}
			}
		}
		final := s.FinalMeasure(builder.FinalMeasurement())
		for i, e := range s.FinalDetectors(final) {
			if e != 0 {
				events = append(events, decoder.Event{Z: layout.KindOrdinal(cfg.Basis, i), Round: rounds + 1})
			}
		}
		failed := dec.Decode(events) != s.ObservableFlip(final)
		if failed {
			ps.LogicalErrorsAll++
		}
		if !suspect {
			ps.Kept++
			if failed {
				ps.LogicalErrorsKept++
			}
		}
	}
	return ps
}
