// Package experiment runs the paper's memory-Z experiments end to end: it
// takes the code's shared layout, instantiates a scheduling policy,
// simulates the requested number of QEC cycles shot by shot, decodes every
// shot, and aggregates the paper's metrics — logical error rate (Equation
// 4), leakage population ratio per round (Equation 5), LRCs scheduled per
// round (Table 4) and speculation accuracy with false-positive and
// false-negative rates (Figure 16). Figure-level sweeps live in figures.go.
package experiment

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/device"
	"repro/internal/noise"
	"repro/internal/sim/batch"
	"repro/internal/stats"
	"repro/internal/surfacecode"
)

// Config describes one experiment (one LER data point).
type Config struct {
	// Distance is the code distance d.
	Distance int
	// Cycles is the number of QEC cycles; each cycle is Distance rounds.
	// Rounds, when nonzero, overrides the round count directly.
	Cycles int
	Rounds int
	// P is the physical error rate; Noise, when non-nil, overrides the
	// standard model built from P.
	P     float64
	Noise *noise.Params
	// Profile, when non-nil, replaces the uniform noise model with per-site
	// calibrated rates from a device profile (internal/device); it takes
	// precedence over Noise and P, and its Base supplies the device-wide
	// transport model and leakage enable. A *uniform* profile is
	// canonicalized away: it produces the same Config.Key, the same RNG
	// streams and bit-identical results as the equivalent scalar config. A
	// heterogeneous profile is content-hashed into Key and the RNG stream,
	// so its tallies never alias the uniform ones, and it additionally
	// installs matching-graph priors in the MWPM decoder (unless explicit
	// Decoder weights are set).
	Profile *device.Profile
	// Basis selects memory-Z (the default, surfacecode.KindZ) or memory-X.
	Basis surfacecode.Kind
	// Shots is the number of Monte-Carlo trials.
	Shots int
	// Seed selects the reproducible random stream.
	Seed uint64
	// Policy and Protocol select the scheduling policy under test.
	Policy   core.Kind
	Protocol circuit.Protocol
	// Decoder tunes matching weights; zero value uses defaults.
	Decoder decoder.Config
	// Workers bounds block-level parallelism; 0 means GOMAXPROCS. Tallies
	// are bit-identical for every worker count.
	Workers int
}

// BlockUnits is the number of consecutive 64-lane work units one wide block
// advances together. Schedulers that round chunk bounds to multiples of it
// keep every block whole. Alignment is a throughput hint, not a correctness
// requirement: an unaligned range runs its edge units in partial blocks,
// with identical results at a higher cost per unit.
const BlockUnits = batch.BlockWords

// Blocks is the number of 4-unit blocks units [lo, hi) touch, partial edge
// blocks included: the most workers a run of that range can keep busy.
func Blocks(lo, hi int) int {
	return (hi+BlockUnits-1)/BlockUnits - lo/BlockUnits
}

// staticPlans reports whether the policy's round plans depend only on the
// round number, so one unmasked op sequence serves every lane of a batch.
func staticPlans(k core.Kind) bool {
	return k == core.PolicyNone || k == core.PolicyAlways
}

func (c Config) rounds() int {
	if c.Rounds > 0 {
		return c.Rounds
	}
	cycles := c.Cycles
	if cycles == 0 {
		cycles = 10
	}
	return cycles * c.Distance
}

func (c Config) noiseParams() noise.Params {
	if c.Profile != nil {
		return c.Profile.Base
	}
	if c.Noise != nil {
		return *c.Noise
	}
	return noise.Standard(c.P)
}

// heterogeneous reports whether the config carries a profile that actually
// differs from its uniform base (the canonicalization predicate used by
// Key, configStream and the decoder-prior wiring).
func (c Config) heterogeneous() bool {
	return c.Profile != nil && !c.Profile.Uniform()
}

// Result aggregates one experiment.
type Result struct {
	Config     Config
	PolicyName string
	Rounds     int

	Shots         int
	LogicalErrors int
	// LER is the logical error rate with its 95% Wilson interval.
	LER, LERLow, LERHigh float64

	// LPRTotal/Data/Parity give the leakage population ratio at the end of
	// each round, averaged over shots (Figure 5 / 15 / 18 / 21).
	LPRTotal, LPRData, LPRParity []float64

	// LRCsPerRound is the average number of LRC operations per round
	// (Table 4).
	LRCsPerRound float64

	// Decision-level speculation statistics over all (data qubit, round)
	// pairs (Figure 16): a decision is correct when the policy schedules an
	// LRC exactly on a qubit that is leaked at scheduling time.
	TruePos, FalsePos, TrueNeg, FalseNeg int64
}

// Accuracy is the fraction of correct per-qubit per-round LRC decisions.
func (r *Result) Accuracy() float64 {
	tot := r.TruePos + r.FalsePos + r.TrueNeg + r.FalseNeg
	if tot == 0 {
		return 0
	}
	return float64(r.TruePos+r.TrueNeg) / float64(tot)
}

// FPR is P(LRC scheduled | qubit not leaked).
func (r *Result) FPR() float64 {
	den := r.FalsePos + r.TrueNeg
	if den == 0 {
		return 0
	}
	return float64(r.FalsePos) / float64(den)
}

// FNR is P(no LRC | qubit leaked).
func (r *Result) FNR() float64 {
	den := r.FalseNeg + r.TruePos
	if den == 0 {
		return 0
	}
	return float64(r.FalseNeg) / float64(den)
}

// MeanLPR averages the total leakage population ratio over all rounds.
func (r *Result) MeanLPR() float64 { return stats.Mean(r.LPRTotal) }

// UnitShots returns the number of shots per work unit, one 64-lane word.
// Units are the quantum of scheduling, caching and merging — each carries
// its own pre-drawn seed, so any subset of units can run anywhere, in any
// order, and tally exactly.
func (c Config) UnitShots() int { return batch.Lanes }

// NumUnits returns the number of units needed to cover Config.Shots.
func (c Config) NumUnits() int {
	u := c.UnitShots()
	return (c.Shots + u - 1) / u
}

// Metrics splits a run's compute time between the simulation stage and the
// decode stage, in nanoseconds summed across all workers (on a parallel run
// the sum exceeds wall-clock time). The service reports them per job in its
// status and per chunk on /metrics (leak_sched_stage_seconds), keeping the
// sim/decode balance observable in production, not just in benchmarks.
type Metrics struct {
	SimNS    int64
	DecodeNS int64

	// WideUnits and NarrowUnits count the executed work units by how they
	// ran: in whole 256-lane blocks (4 full units each), or in partial
	// blocks (range edges and shot-capped units).
	WideUnits   int64
	NarrowUnits int64
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.SimNS += other.SimNS
	m.DecodeNS += other.DecodeNS
	m.WideUnits += other.WideUnits
	m.NarrowUnits += other.NarrowUnits
}

// Run executes the experiment at its configured shot count and derives the
// Result from the accumulated tally.
func Run(cfg Config) Result {
	// The final unit is truncated to cfg.Shots, preserving the historical
	// contract that Result.Shots == cfg.Shots even when Shots is not a
	// multiple of the batch width.
	t, _ := runUnitRange(context.Background(), cfg, 0, cfg.NumUnits(), cfg.Shots)
	return t.ResultFor(cfg)
}

// RunUnits executes work units [lo, hi) at full width (every unit carries
// UnitShots shots regardless of cfg.Shots) and returns their tally. Tallies
// from disjoint ranges of the same config merge exactly — this is the
// store/service entry point for incremental and adaptive execution.
func RunUnits(cfg Config, lo, hi int) *Tally {
	t, _ := runUnitRange(context.Background(), cfg, lo, hi, hi*cfg.UnitShots())
	return t
}

// RunUnitsMeteredCtx is RunUnits with cooperative cancellation at block
// boundaries, plus stage timing. When ctx is cancelled (deadline,
// Job.Cancel, server drain), workers stop before starting their next block
// and the partial tally — covering exactly the units that finished — is
// returned alongside ctx's error. Partial tallies keep the merge-exactness
// contract (their covered-unit bitset is a subset of [lo, hi)), so the
// service can checkpoint them into the store and a later run re-issues only
// the remainder. Units are never abandoned mid-flight: a unit either
// completes and is covered, or never starts. The returned Metrics report
// how many worker-nanoseconds the range spent simulating versus decoding;
// the tally is bit-identical to RunUnits'.
func RunUnitsMeteredCtx(ctx context.Context, cfg Config, lo, hi int) (*Tally, Metrics, error) {
	t, m := runUnitRange(ctx, cfg, lo, hi, hi*cfg.UnitShots())
	return t, m, ctx.Err()
}

// runSetup is what every worker of one run shares: the layout, the noise
// model, the resolved per-site rates (nil without a profile) and the
// decoder's basis and matching weights.
type runSetup struct {
	layout *surfacecode.Layout
	rounds int
	np     noise.Params
	rates  *device.Rates
	basis  surfacecode.Kind
	dcfg   decoder.Config
}

// newRunSetup resolves the config into the shared state of a run; it
// panics on an invalid noise model or profile.
func newRunSetup(cfg Config) *runSetup {
	e := &runSetup{layout: surfacecode.MustNew(cfg.Distance), rounds: cfg.rounds(), np: cfg.noiseParams(),
		basis: cfg.Basis, dcfg: cfg.Decoder}
	if err := e.np.Validate(); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	if cfg.Profile != nil {
		r, err := cfg.Profile.Resolve(e.layout)
		if err != nil {
			panic(fmt.Sprintf("experiment: %v", err))
		}
		e.rates = r
	}
	if e.rates != nil && !e.rates.Uniform && e.dcfg.SpaceWeights == nil && e.dcfg.TimeWeights == nil {
		// Heterogeneous profiles supply matching-graph priors from the local
		// rates; explicit per-site Decoder weights win when set.
		e.dcfg.SpaceWeights, e.dcfg.TimeWeights = e.rates.DecoderPriors(e.layout)
	}
	return e
}

// decoder builds the run's decoder, one handle that every worker shares.
// The distance tables, with the scratch arenas and unit collectors decode
// calls borrow, are cached and shared inside package decoder, so
// construction is O(lookup) and a new run decodes as warm as the last.
func (e *runSetup) decoder() *decoder.Decoder {
	return decoder.NewForKind(e.layout, e.dcfg, e.basis)
}

// runUnitRange simulates units [lo, hi), with total shot count clamped to
// shotsCap (the last unit runs fewer lanes when shotsCap cuts into it).
//
// Workers claim 4-unit blocks from one shared counter, so a worker that
// draws cheap blocks takes more of them, and each decodes its own units
// through the run's one decoder into its own tally. Every unit keeps its
// pre-drawn seed and its sub-word whichever worker claims it, and tallies
// are integer counts that merge exactly, so the result is bit-identical for
// any worker count.
//
// A worker that panics stops the others at their next block claim, and once
// all have returned runUnitRange re-panics with the first value in the
// caller's goroutine, where the caller's recover can see it.
func runUnitRange(ctx context.Context, cfg Config, lo, hi, shotsCap int) (*Tally, Metrics) {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("experiment: invalid unit range [%d, %d)", lo, hi))
	}
	if hi == lo {
		return NewTally(cfg.rounds(), batch.Lanes), Metrics{}
	}
	rs := newRunSetup(cfg)
	dec := rs.decoder()
	// One pre-drawn seed per unit, a deterministic function of the config
	// identity and the unit index alone, so results are identical for any
	// worker count and any partition of the unit range across runs. Unit u's
	// seed is the root stream's u-th draw; seeds[u-lo] keeps those of [lo, hi).
	root := stats.NewRNG(cfg.Seed, configStream(cfg))
	for i := 0; i < lo; i++ {
		root.Uint64()
	}
	seeds := make([]uint64, hi-lo)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}

	blocks := Blocks(lo, hi)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, blocks)
	var next atomic.Int64 // the next unclaimed block
	next.Store(int64(lo / BlockUnits))
	accums := make([]*Tally, workers)
	workerMetrics := make([]Metrics, workers)
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := range accums {
		accums[w] = NewTally(rs.rounds, batch.Lanes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
					next.Store(int64(hi)) // every later claim is past the range
				}
			}()
			runBatchWorker(ctx, cfg, rs, dec, seeds, lo, hi, shotsCap, &next, accums[w], &workerMetrics[w])
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}

	total := accums[0]
	for _, a := range accums[1:] {
		if err := total.Merge(a); err != nil {
			panic(fmt.Sprintf("experiment: worker tally merge: %v", err))
		}
	}
	var m Metrics
	for i := range workerMetrics {
		m.Add(workerMetrics[i])
	}
	return total, m
}

// runBatchWorker claims 4-unit blocks of [lo, hi) from next until the range
// is done or ctx is cancelled. Every block runs on the 256-lane wide engine
// with one independent per-unit RNG stream per 64-lane sub-word, so a block
// is bit-identical to its units run one at a time. A partial block — fewer
// than 4 units at a range edge, or a last unit cut by the shot cap — leaves
// the missing units' sub-words absent (nil RNG) and counts only the active
// lanes of a cut unit. Static and adaptive policies differ in three steps
// only:
//   - plan: one core.Policy serves every lane of a static schedule; the
//     bit-sliced core.LanePolicies plans each lane of an adaptive one;
//   - round: static plans run their shared compiled unmasked op sequence,
//     adaptive ones the per-round merge of the lane plans under lane masks;
//   - observe: only the adaptive planner reads the round's outcome words.
//
// After the final round the worker decodes the block's units itself, one
// collector per sub-word, through the run's shared decoder, into acc and m.
// The four collectors come from dec and go back to it when the worker
// returns.
func runBatchWorker(ctx context.Context, cfg Config, rs *runSetup, dec *decoder.Decoder, unitSeeds []uint64,
	lo, hi, shotsCap int, next *atomic.Int64, acc *Tally, m *Metrics) {

	layout, rounds := rs.layout, rs.rounds
	builder := circuit.NewBuilder(layout)
	kstabs := decoder.KindStabMaps(layout, cfg.Basis)
	ws := batch.NewWide(layout, rs.np, cfg.Basis)
	ws.UseRates(rs.rates)
	ws.TrackML = cfg.Policy == core.PolicyEraserM
	var pol core.Policy       // static plans: one instance serves every lane
	var lp *core.LanePolicies // adaptive plans: one bit-sliced lane per shot
	if staticPlans(cfg.Policy) {
		pol = core.NewPolicy(cfg.Policy, layout, cfg.Protocol)
	} else {
		lp = core.NewLanePolicies(cfg.Policy, layout, cfg.Protocol, batch.BlockLanes)
	}
	var cols [BlockUnits]*decoder.BatchCollector
	for j := range cols {
		cols[j] = dec.Collector()
	}
	defer func() {
		// Last in, first out: the next worker to borrow them gets each
		// sub-word's collector back in the same slot.
		for j := len(cols) - 1; j >= 0; j-- {
			dec.Release(cols[j])
		}
	}()

	for {
		blk := int(next.Add(1) - 1)
		if blk*BlockUnits >= hi || ctx.Err() != nil {
			return
		}
		u0 := time.Now()
		var rngs [BlockUnits]*stats.RNG
		var active batch.Block // the lanes holding real shots; 0 on absent sub-words
		n, units := 0, 0
		for j := range rngs {
			b := blk*BlockUnits + j
			if b < lo || b >= hi {
				continue
			}
			lanes := min(batch.Lanes, shotsCap-b*batch.Lanes)
			active[j] = batch.LaneMask(lanes)
			n += lanes
			units++
			rngs[j] = stats.NewRNG(unitSeeds[b-lo], uint64(b))
			cols[j].Reset()
			acc.Covered.Add(b)
		}
		acc.Shots += n
		ws.Reset(rngs)
		if lp != nil {
			lp.Reset()
		} else {
			pol.Reset()
		}

		for r := 1; r <= rounds; r++ {
			var plan circuit.Plan
			var plans []circuit.Plan
			if lp != nil {
				plans = lp.PlanRound(r, active)
				acc.LRCs += lp.LRCTotal()
			} else {
				plan = pol.PlanRound(r)
				acc.LRCs += int64(len(plan.LRCs)) * int64(n)
			}
			// Decision accounting against the leakage state at the end of
			// the previous round, as in RunScalar.
			for q := 0; q < layout.NumData; q++ {
				var planned batch.Block
				if lp != nil {
					planned = batch.Block(lp.PlannedWords(q))
				} else if pol.PlannedLRC(q) {
					planned = active
				}
				leaked := ws.LeakedBlock(q)
				var tp, fp, fn int64
				for j := range planned {
					lk := leaked[j] & active[j]
					tp += int64(bits.OnesCount64(planned[j] & lk))
					fp += int64(bits.OnesCount64(planned[j] &^ lk))
					fn += int64(bits.OnesCount64(lk &^ planned[j]))
				}
				acc.TruePos += tp
				acc.FalsePos += fp
				acc.FalseNeg += fn
				acc.TrueNeg += int64(n) - tp - fp - fn
			}

			var events []uint64
			if lp != nil {
				events = ws.RunRoundMasked(builder.MaskedRound(plans, active))
			} else {
				events = ws.RunRound(builder.Round(plan))
			}
			for j, col := range cols {
				if active[j] != 0 {
					col.AddWideWords(events, batch.BlockWords, j, kstabs, r, active[j])
				}
			}
			dleak, pleak := ws.LeakedCounts(active)
			acc.LPRDataNum[r-1] += int64(dleak)
			acc.LPRParityNum[r-1] += int64(pleak)

			if lp != nil {
				lp.Observe(core.LaneRoundInfo{
					Round:          r,
					Active:         active,
					Events:         events,
					MLParityLeak:   ws.MLParityLeak(),
					TrueLeakedData: ws.LeakedDataWords(),
				})
			}
		}

		fdet, obs := ws.FinalRound(builder.FinalMeasurement())
		for j, col := range cols {
			if active[j] != 0 {
				col.AddWideWords(fdet, batch.BlockWords, j, kstabs, rounds+1, active[j])
			}
		}
		d0 := time.Now()
		m.SimNS += d0.Sub(u0).Nanoseconds()
		for j, col := range cols {
			if active[j] != 0 {
				pred := dec.DecodeLanes(col, 0, bits.OnesCount64(active[j]))
				acc.LogicalErrors += bits.OnesCount64((pred ^ obs[j]) & active[j])
			}
		}
		m.DecodeNS += time.Since(d0).Nanoseconds()
		if n == batch.BlockLanes {
			m.WideUnits += int64(units)
		} else {
			m.NarrowUnits += int64(units)
		}
	}
}

// configStream hashes the experiment identity into a deterministic RNG
// stream so that different configs sharing a seed stay independent. Every
// noise field participates via its exact math.Float64bits image — a lossy
// projection (or a skipped field) would hand two distinct configs the same
// byte-identical random stream under a shared seed, silently correlating
// their Monte-Carlo estimates.
func configStream(cfg Config) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(cfg.Distance))
	mix(uint64(cfg.rounds()))
	mix(uint64(cfg.Policy))
	mix(uint64(cfg.Protocol))
	mix(uint64(cfg.Basis))
	// The retired union-find flag's slot, at its MWPM value. Mixing 0 is
	// still an FNV step: dropping it would move every stream.
	mix(0)
	np := cfg.noiseParams()
	mix(uint64(np.Transport))
	mix(boolBit(np.LeakageEnabled))
	mix(math.Float64bits(np.P))
	mix(math.Float64bits(np.PLeak))
	mix(math.Float64bits(np.PSeep))
	mix(math.Float64bits(np.PTransport))
	mix(math.Float64bits(np.PMultiLevelError))
	// A heterogeneous profile folds its content hash into the stream so its
	// units draw independently of the uniform config's. A uniform profile
	// mixes nothing: its stream — and hence its shots — are identical to the
	// profile-free config's, which is what makes Uniform(p) bit-exact.
	if cfg.heterogeneous() {
		sum := cfg.Profile.Hash()
		for i := 0; i < len(sum); i += 8 {
			mix(binary.LittleEndian.Uint64(sum[i:]))
		}
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
