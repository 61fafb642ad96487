// Package experiment runs the paper's memory-Z experiments end to end: it
// builds a layout, instantiates a scheduling policy, simulates the requested
// number of QEC cycles shot by shot, decodes every shot, and aggregates the
// paper's metrics — logical error rate (Equation 4), leakage population
// ratio per round (Equation 5), LRCs scheduled per round (Table 4) and
// speculation accuracy with false-positive and false-negative rates
// (Figure 16). Figure-level sweeps live in figures.go.
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
	"repro/internal/sim"
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
	// UseUnionFind decodes with the union-find engine instead of MWPM.
	UseUnionFind bool
	// Workers bounds shot-level parallelism; 0 means GOMAXPROCS, 1 forces
	// fully deterministic serial accumulation.
	Workers int
	// Tune optionally adjusts the policy after construction (ablations).
	Tune func(core.Policy)
	// ForceScalar disables the word-parallel batch fast path even for
	// eligible static policies; benchmarks and engine-agreement tests use it
	// to pit the two simulators against each other.
	ForceScalar bool
}

// BlockUnits is the number of consecutive 64-lane work units one wide block
// advances together.
const BlockUnits = batch.BlockWords

// UnitAlign returns the unit-range alignment the config's engine prefers:
// BlockUnits on the batch path — schedulers that round chunk bounds to
// multiples of it keep every block whole — and 1 on the scalar path.
// Alignment is a throughput hint, not a correctness requirement: an
// unaligned range runs its edge units in partial blocks, with identical
// results at a higher cost per unit.
func (c Config) UnitAlign() int {
	if batchEligible(c) {
		return BlockUnits
	}
	return 1
}

// batchEligible reports whether the experiment can run on the word-parallel
// batch simulator. Since the lane-masked op engine, every policy qualifies:
// static NoLRC/Always schedules share one unmasked op sequence across all
// lanes, and the adaptive ERASER/ERASER+M/Optimal policies run on the
// word-level planner (core.LanePolicies), whose per-lane plans are merged
// into one masked op sequence per round (circuit.Builder.MaskedRound). Only
// ForceScalar (the benchmark and engine-agreement opt-out) and Tune (which
// mutates a single scalar policy instance; the word-level planner has no
// tuning knobs) keep an experiment on the scalar simulator.
func batchEligible(cfg Config) bool {
	return !cfg.ForceScalar && cfg.Tune == nil
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

// UnitShots returns the number of shots per work unit: a whole 64-lane batch
// on the word-parallel path, a single shot on the scalar path. Units are the
// quantum of scheduling, caching and merging — each carries its own
// pre-drawn seed, so any subset of units can run anywhere, in any order, and
// tally exactly.
func (c Config) UnitShots() int {
	if batchEligible(c) {
		return batch.Lanes
	}
	return 1
}

// NumUnits returns the number of units needed to cover Config.Shots.
func (c Config) NumUnits() int {
	u := c.UnitShots()
	return (c.Shots + u - 1) / u
}

// Metrics splits a run's compute time between the simulation stage and the
// decode stage, in nanoseconds summed across all workers (on a parallel run
// the sum exceeds wall-clock time). The service aggregates these per job and
// exposes them on /v1/healthz, keeping the sim/decode balance observable in
// production, not just in benchmarks.
type Metrics struct {
	SimNS    int64
	DecodeNS int64

	// WideUnits, NarrowUnits and ScalarUnits count the executed work units by
	// how they ran: in whole 256-lane blocks (4 full units each), in partial
	// blocks (range edges and shot-capped units), and on the scalar per-shot
	// simulator.
	WideUnits   int64
	NarrowUnits int64
	ScalarUnits int64
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.SimNS += other.SimNS
	m.DecodeNS += other.DecodeNS
	m.WideUnits += other.WideUnits
	m.NarrowUnits += other.NarrowUnits
	m.ScalarUnits += other.ScalarUnits
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

// RunUnitsCtx is RunUnits with cooperative cancellation at unit boundaries:
// when ctx is cancelled (deadline, Job.Cancel, server drain), workers stop
// before starting their next unit and the partial tally — covering exactly
// the units that finished — is returned alongside ctx's error. Partial
// tallies keep the merge-exactness contract (their covered-unit bitset is a
// subset of [lo, hi)), so the service can checkpoint them into the store and
// a later run re-issues only the remainder. Units are never abandoned
// mid-flight: a unit either completes and is covered, or never starts.
func RunUnitsCtx(ctx context.Context, cfg Config, lo, hi int) (*Tally, error) {
	t, _, err := RunUnitsMeteredCtx(ctx, cfg, lo, hi)
	return t, err
}

// RunUnitsMeteredCtx is RunUnitsCtx plus stage timing: the returned Metrics
// report how many worker-nanoseconds the range spent simulating versus
// decoding. The tally is bit-identical to the unmetered entry points.
func RunUnitsMeteredCtx(ctx context.Context, cfg Config, lo, hi int) (*Tally, Metrics, error) {
	t, m := runUnitRange(ctx, cfg, lo, hi, hi*cfg.UnitShots())
	return t, m, ctx.Err()
}

// runUnitRange simulates units [lo, hi), with total shot count clamped to
// shotsCap (the last unit runs fewer lanes when shotsCap cuts into it).
//
// On the batch path with more than one worker, execution is a two-stage
// pipeline: sim workers run the rounds of a unit and hand the filled event
// collector off to a pool of decode workers, where the unit's 64 lanes are
// decoded concurrently as lane-range tasks. Logical errors are pure integer
// counts, so accumulating them from the decode stage with atomic adds keeps
// tallies bit-identical to the serial path for any worker count.
func runUnitRange(ctx context.Context, cfg Config, lo, hi, shotsCap int) (*Tally, Metrics) {
	rounds := cfg.rounds()
	unitShots := cfg.UnitShots()
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("experiment: invalid unit range [%d, %d)", lo, hi))
	}
	if hi == lo {
		return NewTally(rounds, unitShots), Metrics{}
	}
	layout := surfacecode.MustNew(cfg.Distance)
	np := cfg.noiseParams()
	if err := np.Validate(); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	var rates *device.Rates
	if cfg.Profile != nil {
		r, err := cfg.Profile.Resolve(layout)
		if err != nil {
			panic(fmt.Sprintf("experiment: %v", err))
		}
		rates = r
	}
	dcfg := cfg.Decoder
	if rates != nil && !rates.Uniform && dcfg.SpaceWeights == nil && dcfg.TimeWeights == nil {
		// Heterogeneous profiles supply matching-graph priors from the local
		// rates; explicit per-site Decoder weights win when set.
		dcfg.SpaceWeights, dcfg.TimeWeights = rates.DecoderPriors(layout)
	}
	// Decoder instances own reusable scratch arenas and must not be shared
	// across goroutines; each worker builds its own through this factory.
	// The heavy precompute (distance tables, detector graphs) is cached and
	// shared inside package decoder, so construction is O(lookup).
	newEngine := func() decoder.BatchDecoder {
		if cfg.UseUnionFind {
			return decoder.NewUnionFind(layout, cfg.Basis, rounds)
		}
		return decoder.NewForKind(layout, dcfg, cfg.Basis)
	}
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

	useBatch := batchEligible(cfg)
	// Workers stride over schedulable items: 4-unit blocks on the batch
	// path, single units otherwise.
	items := hi - lo
	if align := cfg.UnitAlign(); align > 1 {
		items = (hi+align-1)/align - lo/align
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	var pipe *decodePipeline
	if useBatch && workers > 1 {
		pipe = newDecodePipeline(workers, newEngine)
	}
	accums := make([]*Tally, workers)
	workerMetrics := make([]Metrics, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acc := NewTally(rounds, unitShots)
		accums[w] = acc
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink := newDecodeSink(pipe, newEngine)
			if useBatch {
				runBatchWorker(ctx, cfg, layout, sink, rounds, np, rates, seeds, lo, hi, shotsCap, w, workers, acc, &workerMetrics[w])
			} else {
				runWorker(ctx, cfg, layout, newEngine(), rounds, np, rates, seeds, lo, hi, w, workers, acc, &workerMetrics[w])
			}
			workerMetrics[w].SimNS += sink.simNS
			workerMetrics[w].DecodeNS += sink.decodeNS
		}(w)
	}
	wg.Wait()

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
	if pipe != nil {
		// The decode stage drains fully even on cancellation: every unit
		// that was simulated and submitted gets decoded, so partial tallies
		// still cover exactly the completed units.
		pipe.close()
		total.LogicalErrors += int(pipe.errs.Load())
		m.DecodeNS += pipe.decodeNS.Load()
	}
	return total, m
}

// unitTask carries one simulated unit from the sim stage to the decode
// stage: the filled event collector, the ground-truth observable flips, the
// active-lane mask and count, plus a refcount of outstanding lane-range
// tasks so the collector returns to the free list exactly once.
type unitTask struct {
	col    *decoder.BatchCollector
	obs    uint64
	active uint64
	lanes  int
	refs   atomic.Int32
}

// decodeTask is one lane range [lo, hi) of a unit.
type decodeTask struct {
	u      *unitTask
	lo, hi int
}

// decodePipeline fans simulated units out to a pool of decode workers, lane
// ranges of one unit decoding concurrently. The bounded task channel is the
// backpressure that keeps the number of in-flight collectors proportional
// to the worker count, and the free list recycles unit tasks so the steady
// state allocates nothing per unit.
type decodePipeline struct {
	tasks    chan decodeTask
	free     chan *unitTask
	fan      int
	errs     atomic.Int64
	decodeNS atomic.Int64
	wg       sync.WaitGroup
}

// pipelineFan is the maximum number of lane-range decode tasks one unit
// splits into; 4 tasks of 16 lanes keeps per-task overhead well under the
// decode cost of a lane range while still spreading a single unit across
// the pool.
const pipelineFan = 4

func newDecodePipeline(workers int, newEngine func() decoder.BatchDecoder) *decodePipeline {
	fan := pipelineFan
	if workers < fan {
		fan = workers
	}
	p := &decodePipeline{
		tasks: make(chan decodeTask, 4*workers),
		free:  make(chan *unitTask, 8*workers),
		fan:   fan,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.decodeWorker(newEngine)
	}
	return p
}

func (p *decodePipeline) decodeWorker(newEngine func() decoder.BatchDecoder) {
	defer p.wg.Done()
	eng := newEngine()
	var errs, ns int64
	for t := range p.tasks {
		t0 := time.Now()
		pred := eng.DecodeLanes(t.u.col, t.lo, t.hi)
		ns += time.Since(t0).Nanoseconds()
		mask := batch.LaneMask(t.hi) &^ batch.LaneMask(t.lo)
		errs += int64(bits.OnesCount64((pred ^ t.u.obs) & t.u.active & mask))
		if t.u.refs.Add(-1) == 0 {
			select {
			case p.free <- t.u:
			default: // free list full; drop the unit task to the GC
			}
		}
	}
	p.errs.Add(errs)
	p.decodeNS.Add(ns)
}

// get returns a recycled or fresh unit task with an empty collector.
func (p *decodePipeline) get() *unitTask {
	select {
	case ut := <-p.free:
		ut.col.Reset()
		return ut
	default:
		return &unitTask{col: decoder.NewBatchCollector()}
	}
}

// submit splits the unit into lane-range tasks and enqueues them; blocks
// when the decode stage is saturated (backpressure on the sim stage).
func (p *decodePipeline) submit(ut *unitTask) {
	// Snapshot lanes: after the final send below the task may already be
	// decoded, recycled through the free list, and rewritten by another sim
	// worker, so ut must not be touched again.
	lanes := ut.lanes
	fan := p.fan
	if lanes < fan {
		fan = lanes
	}
	chunk := (lanes + fan - 1) / fan
	n := (lanes + chunk - 1) / chunk
	ut.refs.Store(int32(n))
	for lo := 0; lo < lanes; lo += chunk {
		hi := lo + chunk
		if hi > lanes {
			hi = lanes
		}
		p.tasks <- decodeTask{u: ut, lo: lo, hi: hi}
	}
}

// close ends the decode stage after the sim stage has finished submitting
// and waits for every outstanding task.
func (p *decodePipeline) close() {
	close(p.tasks)
	p.wg.Wait()
}

// decodeSink is a batch worker's hand-off point to the decode stage. In
// pipelined mode units go to the shared decode pool; in inline mode (a
// single worker) the worker decodes its own units with its own engine and
// arenas. A sink holds up to BlockUnits units in flight — one slot per
// sub-word of a block — so a block's sim step fans out to per-unit
// collectors while everything downstream of the sim→decode boundary stays
// 64-lane.
type decodeSink struct {
	pipe *decodePipeline
	cur  [BlockUnits]*unitTask

	eng  decoder.BatchDecoder
	cols [BlockUnits]*decoder.BatchCollector

	simNS    int64
	decodeNS int64
}

func newDecodeSink(pipe *decodePipeline, newEngine func() decoder.BatchDecoder) *decodeSink {
	if pipe != nil {
		return &decodeSink{pipe: pipe}
	}
	return &decodeSink{eng: newEngine()}
}

// beginSlot returns the empty collector for the unit in slot i.
func (sk *decodeSink) beginSlot(i int) *decoder.BatchCollector {
	if sk.pipe != nil {
		sk.cur[i] = sk.pipe.get()
		return sk.cur[i].col
	}
	if sk.cols[i] == nil {
		sk.cols[i] = decoder.NewBatchCollector()
	}
	sk.cols[i].Reset()
	return sk.cols[i]
}

// finishSlot completes the unit in slot i, whose collector holds every
// detector layer and whose shots fill the low lanes set in active:
// pipelined units are handed off, inline units decode immediately into acc.
func (sk *decodeSink) finishSlot(i int, obs, active uint64, acc *Tally) {
	lanes := bits.OnesCount64(active)
	if sk.pipe != nil {
		ut := sk.cur[i]
		sk.cur[i] = nil
		ut.obs, ut.active, ut.lanes = obs, active, lanes
		sk.pipe.submit(ut)
		return
	}
	t0 := time.Now()
	pred := sk.eng.DecodeLanes(sk.cols[i], 0, lanes)
	sk.decodeNS += time.Since(t0).Nanoseconds()
	acc.LogicalErrors += bits.OnesCount64((pred ^ obs) & active)
}

func runWorker(ctx context.Context, cfg Config, layout *surfacecode.Layout, dec decoder.Engine,
	rounds int, np noise.Params, rates *device.Rates, shotSeeds []uint64, lo, hi, w, stride int, acc *Tally, m *Metrics) {

	builder := circuit.NewBuilder(layout)
	pol := core.NewPolicy(cfg.Policy, layout, cfg.Protocol)
	if cfg.Tune != nil {
		cfg.Tune(pol)
	}
	truth := make([]bool, layout.NumData)
	prevTruth := make([]bool, layout.NumData)
	events := make([]decoder.Event, 0, 64)
	var s *sim.Simulator

	for shot := lo + w; shot < hi; shot += stride {
		// Cancellation is checked only between units: a unit either runs to
		// completion and is covered, or never starts.
		if ctx.Err() != nil {
			return
		}
		u0 := time.Now()
		acc.Covered.Add(shot)
		acc.Shots++
		rng := stats.NewRNG(shotSeeds[shot-lo], uint64(shot))
		if s == nil {
			s = sim.NewMemory(layout, np, rng, cfg.Basis)
			s.UseRates(rates)
		} else {
			s.Reset(rng)
		}
		pol.Reset()
		for i := range prevTruth {
			prevTruth[i] = false
		}
		events = events[:0]

		for r := 1; r <= rounds; r++ {
			plan := pol.PlanRound(r)
			acc.LRCs += int64(len(plan.LRCs))
			for q := 0; q < layout.NumData; q++ {
				switch planned, leaked := pol.PlannedLRC(q), prevTruth[q]; {
				case planned && leaked:
					acc.TruePos++
				case planned && !leaked:
					acc.FalsePos++
				case !planned && leaked:
					acc.FalseNeg++
				default:
					acc.TrueNeg++
				}
			}

			ops := builder.Round(plan)
			rr := s.RunRound(ops)

			for i := range layout.Stabilizers {
				if rr.Events[i] != 0 && layout.Stabilizers[i].Kind == cfg.Basis {
					events = append(events, decoder.Event{Z: layout.KindOrdinal(cfg.Basis, i), Round: r})
				}
			}
			dleak, pleak := s.LeakedCounts()
			acc.LPRDataNum[r-1] += int64(dleak)
			acc.LPRParityNum[r-1] += int64(pleak)

			s.SnapshotLeakedData(truth)
			pol.Observe(core.RoundInfo{
				Round:          r,
				Events:         rr.Events,
				MLParity:       rr.MLParity,
				MLData:         rr.MLData,
				TrueLeakedData: truth,
			})
			prevTruth, truth = truth, prevTruth
		}

		final := s.FinalMeasure(builder.FinalMeasurement())
		fdet := s.FinalDetectors(final)
		for i, e := range fdet {
			if e != 0 {
				events = append(events, decoder.Event{Z: layout.KindOrdinal(cfg.Basis, i), Round: rounds + 1})
			}
		}
		d0 := time.Now()
		predicted := dec.Decode(events)
		m.DecodeNS += time.Since(d0).Nanoseconds()
		m.SimNS += d0.Sub(u0).Nanoseconds()
		if predicted != s.ObservableFlip(final) {
			acc.LogicalErrors++
		}
		m.ScalarUnits++
	}
}

// kindStabs precomputes, once per worker, the stabilizer-index to decoder
// kind-ordinal map the collector uses to fan event words out to lanes.
func kindStabs(layout *surfacecode.Layout, basis surfacecode.Kind) []decoder.StabMap {
	var ks []decoder.StabMap
	for i := range layout.Stabilizers {
		if layout.Stabilizers[i].Kind == basis {
			ks = append(ks, decoder.StabMap{Idx: int32(i), Ord: int32(layout.KindOrdinal(basis, i))})
		}
	}
	return ks
}

// runBatchWorker is runWorker's word-parallel counterpart. Workers stride
// over 4-unit blocks, and every block runs on the 256-lane wide engine with
// one independent per-unit RNG stream per 64-lane sub-word, so a block is
// bit-identical to its units run one at a time. A partial block — fewer than
// 4 units at a range edge, or a last unit cut by the shot cap — leaves the
// missing units' sub-words absent (nil RNG) and counts only the active lanes
// of a cut unit. Static and adaptive policies differ in three steps only:
//   - plan: one core.Policy serves every lane of a static schedule; the
//     bit-sliced core.LanePolicies plans each lane of an adaptive one;
//   - round: static plans run the builder's memoized unmasked op sequence,
//     adaptive ones the per-round merge of the lane plans under lane masks;
//   - observe: only the adaptive planner reads the round's outcome words.
//
// Decoding goes through the sink: inline on single-worker runs, pipelined to
// the decode pool otherwise.
func runBatchWorker(ctx context.Context, cfg Config, layout *surfacecode.Layout, sink *decodeSink,
	rounds int, np noise.Params, rates *device.Rates, unitSeeds []uint64, lo, hi, shotsCap, w, stride int, acc *Tally, m *Metrics) {

	builder := circuit.NewBuilder(layout)
	kstabs := kindStabs(layout, cfg.Basis)
	ws := batch.NewWide(layout, np, cfg.Basis)
	ws.UseRates(rates)
	ws.TrackML = cfg.Policy == core.PolicyEraserM
	var pol core.Policy       // static plans: one instance serves every lane
	var lp *core.LanePolicies // adaptive plans: one bit-sliced lane per shot
	if staticPlans(cfg.Policy) {
		pol = core.NewPolicy(cfg.Policy, layout, cfg.Protocol)
	} else {
		lp = core.NewLanePolicies(cfg.Policy, layout, cfg.Protocol, batch.BlockLanes)
	}
	var cols [BlockUnits]*decoder.BatchCollector

	for blk := lo/BlockUnits + w; blk*BlockUnits < hi; blk += stride {
		if ctx.Err() != nil {
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
			cols[j] = sink.beginSlot(j)
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
			// the previous round, as in the scalar path.
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
		sink.simNS += time.Since(u0).Nanoseconds()
		for j := range cols {
			if active[j] != 0 {
				sink.finishSlot(j, obs[j], active[j], acc)
			}
		}
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
	mix(boolBit(cfg.UseUnionFind))
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
