package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// This file is the mergeable half of the experiment runner. A Tally holds
// the raw, order-independent counts accumulated while simulating a set of
// work units; Result is derived from a Tally at read time (Wilson bounds and
// LPR normalization live here, not in the accumulation loop). Because every
// unit is independently seeded from (Config.Seed, Config.Key-relevant
// fields, unit index), tallies over disjoint unit sets merge *exactly*: the
// merge of N partial runs is bit-identical to one run covering the union.
// That property is what lets the result store extend prior work instead of
// redoing it.

// UnitSet is a bitmap over work-unit indexes, recording which units a tally
// covers. The JSON form is the raw words, so persisted tallies round-trip.
type UnitSet struct {
	Words []uint64 `json:"words"`
}

// Add marks unit i as covered.
func (s *UnitSet) Add(i int) {
	w := i >> 6
	for len(s.Words) <= w {
		s.Words = append(s.Words, 0)
	}
	s.Words[w] |= 1 << uint(i&63)
}

// Contains reports whether unit i is covered.
func (s *UnitSet) Contains(i int) bool {
	w := i >> 6
	return w < len(s.Words) && s.Words[w]&(1<<uint(i&63)) != 0
}

// Count returns the number of covered units.
func (s *UnitSet) Count() int {
	n := 0
	for _, w := range s.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Intersects reports whether the two sets share any unit.
func (s *UnitSet) Intersects(o *UnitSet) bool {
	n := len(s.Words)
	if len(o.Words) < n {
		n = len(o.Words)
	}
	for i := 0; i < n; i++ {
		if s.Words[i]&o.Words[i] != 0 {
			return true
		}
	}
	return false
}

// Union folds o into s.
func (s *UnitSet) Union(o *UnitSet) {
	for len(s.Words) < len(o.Words) {
		s.Words = append(s.Words, 0)
	}
	for i, w := range o.Words {
		s.Words[i] |= w
	}
}

// FirstGap returns the smallest uncovered unit index >= from. Sequential
// writers fill units as a prefix, so this is how the service picks where the
// next chunk of work starts.
func (s *UnitSet) FirstGap(from int) int {
	for i := from; ; i++ {
		w := i >> 6
		if w >= len(s.Words) {
			return i
		}
		if rest := ^s.Words[w] >> uint(i&63); rest != 0 {
			return i + bits.TrailingZeros64(rest)
		}
		i |= 63
	}
}

// Clone returns an independent copy.
func (s *UnitSet) Clone() UnitSet {
	return UnitSet{Words: append([]uint64(nil), s.Words...)}
}

// Tally is the mergeable accumulation of a set of simulation units: integer
// counts only, so merging is exact and order-independent. All fields are
// exported for JSON persistence in the result store.
type Tally struct {
	// Rounds is the per-shot round count; tallies only merge when it matches.
	Rounds int `json:"rounds"`
	// UnitShots is the number of shots per full work unit (Config.UnitShots).
	UnitShots int `json:"unit_shots"`
	// Shots is the total number of shots the tally covers.
	Shots int `json:"shots"`
	// LogicalErrors counts shots whose decoded correction missed.
	LogicalErrors int `json:"logical_errors"`
	// LRCs counts scheduled leakage-removal circuits over all shots/rounds.
	LRCs int64 `json:"lrcs"`
	// Speculation decision counters (Figure 16).
	TruePos  int64 `json:"tp"`
	FalsePos int64 `json:"fp"`
	TrueNeg  int64 `json:"tn"`
	FalseNeg int64 `json:"fn"`
	// LPRDataNum[r] / LPRParityNum[r] are the per-round LPR numerators: the
	// total number of leaked data / parity qubits observed at the end of
	// round r+1, summed over shots. Normalization to a ratio happens in
	// Result derivation.
	LPRDataNum   []int64 `json:"lpr_data_num"`
	LPRParityNum []int64 `json:"lpr_parity_num"`
	// Covered records which unit indexes the tally includes.
	Covered UnitSet `json:"covered"`
}

// NewTally returns an empty tally for experiments with the given round count
// and unit width.
func NewTally(rounds, unitShots int) *Tally {
	return &Tally{
		Rounds:       rounds,
		UnitShots:    unitShots,
		LPRDataNum:   make([]int64, rounds),
		LPRParityNum: make([]int64, rounds),
	}
}

// Clone returns an independent deep copy.
func (t *Tally) Clone() *Tally {
	c := *t
	c.LPRDataNum = append([]int64(nil), t.LPRDataNum...)
	c.LPRParityNum = append([]int64(nil), t.LPRParityNum...)
	c.Covered = t.Covered.Clone()
	return &c
}

// Merge folds o into t. The two tallies must describe the same experiment
// shape (rounds, unit width) and cover disjoint unit sets — the per-unit
// seeding makes the merged tally exactly equal to a single run over the
// union of units.
func (t *Tally) Merge(o *Tally) error {
	if t.Rounds != o.Rounds {
		return fmt.Errorf("tally merge: round counts differ (%d vs %d)", t.Rounds, o.Rounds)
	}
	if t.UnitShots != o.UnitShots {
		return fmt.Errorf("tally merge: unit widths differ (%d vs %d)", t.UnitShots, o.UnitShots)
	}
	if err := t.checkLPR(); err != nil {
		return fmt.Errorf("tally merge: %w", err)
	}
	if err := o.checkLPR(); err != nil {
		return fmt.Errorf("tally merge: %w", err)
	}
	if t.Covered.Intersects(&o.Covered) {
		return fmt.Errorf("tally merge: unit sets overlap")
	}
	t.Shots += o.Shots
	t.LogicalErrors += o.LogicalErrors
	t.LRCs += o.LRCs
	t.TruePos += o.TruePos
	t.FalsePos += o.FalsePos
	t.TrueNeg += o.TrueNeg
	t.FalseNeg += o.FalseNeg
	for r := 0; r < t.Rounds; r++ {
		t.LPRDataNum[r] += o.LPRDataNum[r]
		t.LPRParityNum[r] += o.LPRParityNum[r]
	}
	t.Covered.Union(&o.Covered)
	return nil
}

// Validate reports whether t has the shape of a tally the runner produces:
// at least one round, at least one shot per unit, one LPR numerator per
// round in each series, and no negative count. The result store applies it
// to every entry it reads back, so a malformed entry whose checksum still
// matches is a detected miss, not a panic in Merge or ResultFor.
func (t *Tally) Validate() error {
	if t.Rounds < 1 || t.UnitShots < 1 {
		return fmt.Errorf("tally: %d rounds of %d-shot units", t.Rounds, t.UnitShots)
	}
	if err := t.checkLPR(); err != nil {
		return err
	}
	if min(int64(t.Shots), int64(t.LogicalErrors), t.LRCs,
		t.TruePos, t.FalsePos, t.TrueNeg, t.FalseNeg) < 0 {
		return fmt.Errorf("tally: negative count")
	}
	for r := range t.LPRDataNum {
		if t.LPRDataNum[r] < 0 || t.LPRParityNum[r] < 0 {
			return fmt.Errorf("tally: negative LPR numerator in round %d", r+1)
		}
	}
	return nil
}

// checkLPR reports whether both LPR series hold one numerator per round.
func (t *Tally) checkLPR() error {
	if len(t.LPRDataNum) != t.Rounds || len(t.LPRParityNum) != t.Rounds {
		return fmt.Errorf("tally: %d rounds but %d data and %d parity LPR numerators",
			t.Rounds, len(t.LPRDataNum), len(t.LPRParityNum))
	}
	return nil
}

// HalfWidth returns the half-width of the Wilson score interval on the
// logical error rate at the given z (1.96 for 95%). It is the quantity the
// adaptive-precision stopping rule drives to the target.
func (t *Tally) HalfWidth(z float64) float64 {
	if t.Shots == 0 {
		return 0.5
	}
	lo, hi := stats.Wilson(t.LogicalErrors, t.Shots, z)
	return (hi - lo) / 2
}

// ResultFor derives the experiment Result from the tally: logical error rate
// with Wilson bounds, normalized LPR series, LRCs per round, and the
// speculation counters. cfg supplies the layout geometry and policy name; the
// statistics come from the tally alone (Result.Shots is the tally's shot
// count, which on full-width unit runs may round cfg.Shots up to a whole
// number of units).
func (t *Tally) ResultFor(cfg Config) Result {
	layout := surfacecode.MustNew(cfg.Distance)
	res := Result{
		Config:        cfg,
		PolicyName:    core.PolicyName(cfg.Policy, cfg.Protocol),
		Rounds:        t.Rounds,
		Shots:         t.Shots,
		LogicalErrors: t.LogicalErrors,
		TruePos:       t.TruePos,
		FalsePos:      t.FalsePos,
		TrueNeg:       t.TrueNeg,
		FalseNeg:      t.FalseNeg,
	}
	res.LPRData = make([]float64, t.Rounds)
	res.LPRParity = make([]float64, t.Rounds)
	res.LPRTotal = make([]float64, t.Rounds)
	if t.Shots == 0 {
		return res
	}
	shots := float64(t.Shots)
	for r := 0; r < t.Rounds; r++ {
		res.LPRData[r] = float64(t.LPRDataNum[r]) / (shots * float64(layout.NumData))
		res.LPRParity[r] = float64(t.LPRParityNum[r]) / (shots * float64(layout.NumParity))
		res.LPRTotal[r] = (res.LPRData[r]*float64(layout.NumData) +
			res.LPRParity[r]*float64(layout.NumParity)) / float64(layout.NumQubits)
	}
	res.LER = float64(t.LogicalErrors) / shots
	res.LERLow, res.LERHigh = stats.Wilson(t.LogicalErrors, t.Shots, 1.96)
	res.LRCsPerRound = float64(t.LRCs) / shots / float64(t.Rounds)
	return res
}

// NumRounds returns the per-shot round count the config resolves to
// (Rounds, or Cycles*Distance with the 10-cycle default).
func (c Config) NumRounds() int { return c.rounds() }

// MaxRounds caps the rounds per shot a config may resolve to; the paper's
// largest point is d = 11 with 10 cycles, 110 rounds. A unit's size grows
// with its rounds: a tally holds two LPR numerators per round, and each
// lane's event list grows with them. The caps bound size, not time: MWPM
// decode time grows with the events per shot, and one MWPM unit at d = 25
// and 250 rounds took 83 s.
const MaxRounds = 1000

// Validate reports whether the config describes a runnable experiment:
// representable distance (surfacecode.CheckDistance), non-negative Cycles,
// Rounds and Shots (zero keeps its meaning: the 10-cycle default, "derive
// from Cycles" and no fixed shot count) resolving to at most MaxRounds
// rounds, known policy/protocol/basis ordinals, decoder settings that build
// a working decoder (decoder.Config.Validate), valid noise parameters, and
// (when set) a device profile whose shape and rates check out for the
// config's distance. Run panics on invalid configs; front ends call this
// first to fail requests gracefully instead.
func (c Config) Validate() error {
	if err := surfacecode.CheckDistance(c.Distance); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"cycles", c.Cycles}, {"rounds", c.Rounds}, {"shots", c.Shots}} {
		if f.v < 0 {
			return fmt.Errorf("%s %d is negative", f.name, f.v)
		}
	}
	if c.Rounds > MaxRounds {
		return fmt.Errorf("rounds %d exceed MaxRounds %d", c.Rounds, MaxRounds)
	}
	// Divide rather than multiply, so a huge cycle count cannot wrap.
	if c.Rounds == 0 && c.Cycles > MaxRounds/c.Distance {
		return fmt.Errorf("cycles %d × distance %d exceed MaxRounds %d", c.Cycles, c.Distance, MaxRounds)
	}
	if err := c.Decoder.Validate(c.Distance); err != nil {
		return err
	}
	if c.Policy > core.PolicyOptimal {
		return fmt.Errorf("unknown policy kind %d", c.Policy)
	}
	if c.Protocol > circuit.ProtocolDQLR {
		return fmt.Errorf("unknown protocol %d", c.Protocol)
	}
	if c.Basis != surfacecode.KindZ && c.Basis != surfacecode.KindX {
		return fmt.Errorf("unknown basis %d", c.Basis)
	}
	if c.Profile != nil {
		if c.Profile.Distance != c.Distance {
			return fmt.Errorf("profile is calibrated for d=%d, config is d=%d",
				c.Profile.Distance, c.Distance)
		}
		if err := c.Profile.Validate(); err != nil {
			return err
		}
	}
	return c.noiseParams().Validate()
}

// keySchema is the version of Config.Key's layout and of what a key's
// units decode to. It moves whenever the same config would simulate or
// decode any unit differently, so no stored tally of the old code is
// merged with the new. v4: greedy matching takes its candidates in one
// documented total order, and the five constant slots v3 kept for deleted
// knobs are gone.
const keySchema = 4

// Key returns the content address of the experiment's unit stream: a
// canonical hash over every Config field that determines what any given unit
// simulates. Two configs with equal keys produce bit-identical units, so
// their tallies are mergeable; fields that only choose *how much* or *how
// fast* to run (Shots, Workers) are deliberately excluded, which is what
// lets a higher-precision re-run extend a stored tally instead of redoing
// it.
func (c Config) Key() string {
	h := sha256.New()
	buf := make([]byte, 8)
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	put(keySchema)
	put(uint64(c.Distance))
	put(uint64(c.rounds()))
	put(uint64(c.Policy))
	put(uint64(c.Protocol))
	put(uint64(c.Basis))
	put(c.Seed)
	dec := c.Decoder
	put(uint64(len(dec.SpaceWeights)))
	for _, w := range dec.SpaceWeights {
		put(math.Float64bits(w))
	}
	put(uint64(len(dec.TimeWeights)))
	for _, w := range dec.TimeWeights {
		put(math.Float64bits(w))
	}
	np := c.noiseParams()
	put(uint64(np.Transport))
	put(boolBit(np.LeakageEnabled))
	put(math.Float64bits(np.P))
	put(math.Float64bits(np.PLeak))
	put(math.Float64bits(np.PSeep))
	put(math.Float64bits(np.PTransport))
	put(math.Float64bits(np.PMultiLevelError))
	// A heterogeneous profile contributes its content hash, so stored
	// tallies never alias across profiles; a uniform profile contributes
	// nothing and keys exactly like the profile-free scalar config it is
	// equivalent to.
	if c.heterogeneous() {
		put(1)
		sum := c.Profile.Hash()
		h.Write(sum[:])
	} else {
		put(0)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Describe returns a short human-readable summary of the config for store
// metadata and logs.
func (c Config) Describe() string {
	np := c.noiseParams()
	desc := fmt.Sprintf("d=%d rounds=%d policy=%s proto=%d basis=%d p=%g seed=%d",
		c.Distance, c.rounds(), c.Policy, c.Protocol, c.Basis, np.P, c.Seed)
	if c.heterogeneous() {
		name := c.Profile.Name
		if name == "" {
			name = "custom"
		}
		desc += fmt.Sprintf(" profile=%s/%s", name, c.Profile.HashHex())
	}
	return desc
}
