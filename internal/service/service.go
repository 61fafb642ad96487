// Package service is the async job scheduler of the sweep orchestration
// subsystem. It sits between callers (cmd/leakage, cmd/leakserved, the
// figure harness) and the simulation engine: identical in-flight requests
// are deduplicated, work is issued as 64-lane batch units fanned across a
// bounded worker pool, finished units merge into the content-addressed
// result store, and adaptive-precision requests keep issuing units until the
// Wilson half-width on the logical error rate meets the target — so easy
// points stop early and hard points get the budget. Because the store is
// consulted before any unit runs, a warm-cache request executes zero
// simulation units, and a request for higher precision extends the stored
// tally instead of redoing it.
//
// The scheduler is built to keep working on misbehaving infrastructure:
//
//   - Cancellation & deadlines — every job carries a context; Job.Cancel,
//     Precision.TimeoutMS and server drain all stop work at the next unit
//     boundary, checkpointing completed units into the store.
//   - Admission control — cold jobs admitted beyond Options.MaxPending are
//     shed with an OverloadError (HTTP 429 + Retry-After); requests the
//     store already satisfies bypass admission entirely, so cached traffic
//     keeps flowing when cold traffic saturates the pool.
//   - Fault tolerance — transient store failures retry with capped
//     exponential backoff + jitter, and a crashed or cancelled unit chunk is
//     simply re-issued: units are independently seeded and tallies over
//     disjoint unit sets merge bit-exactly, so recovery never changes a
//     completed job's numbers.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Precision is the adaptive shot-allocation target. The zero value means
// fixed-count mode: run exactly the units needed to cover Config.Shots.
type Precision struct {
	// TargetCIHalfWidth is the Wilson 95% half-width on LER at which a point
	// stops issuing units. <= 0 selects fixed-count mode.
	TargetCIHalfWidth float64 `json:"target_ci_half_width,omitempty"`
	// MinShots is the floor before the stopping rule is consulted (default
	// two full units), so a lucky early half-width cannot end a point with
	// meaningless statistics.
	MinShots int `json:"min_shots,omitempty"`
	// MaxShots caps the budget of a hard point (default 1<<20).
	MaxShots int `json:"max_shots,omitempty"`
	// TimeoutMS is the job's wall-clock deadline in milliseconds (0 = none).
	// An expired job fails with context.DeadlineExceeded, keeping every unit
	// merged so far — a re-run covers only the remainder.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Adaptive reports whether the precision selects CI-targeted allocation.
func (p Precision) Adaptive() bool { return p.TargetCIHalfWidth > 0 }

// DefaultMaxShots bounds adaptive points whose LER is too close to the
// target half-width to ever satisfy it.
const DefaultMaxShots = 1 << 20

func (p Precision) bounds(unitShots int) (minShots, maxShots int) {
	minShots = p.MinShots
	if minShots <= 0 {
		minShots = 2 * unitShots
	}
	maxShots = p.MaxShots
	if maxShots <= 0 {
		maxShots = DefaultMaxShots
	}
	if maxShots < minShots {
		maxShots = minShots
	}
	return minShots, maxShots
}

// Scheduler-level sentinel causes and errors.
var (
	// ErrCanceled is the cancellation cause set by Job.Cancel.
	ErrCanceled = errors.New("canceled by client")
	// ErrDraining is returned by Submit (and set as the cancellation cause
	// of running jobs) once Shutdown has begun.
	ErrDraining = errors.New("server draining")
)

// OverloadError is returned by Submit when the cold-job admission queue is
// full. RetryAfter is the suggested client backoff.
type OverloadError struct {
	Pending    int
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: overloaded (%d jobs pending), retry in %v", e.Pending, e.RetryAfter)
}

// Options configures a Scheduler beyond the worker-pool width.
type Options struct {
	// Workers is the worker-pool width (0 = GOMAXPROCS).
	Workers int
	// MaxPending bounds admitted-but-unfinished cold jobs; submissions over
	// the bound are shed with an OverloadError. Warm requests (already
	// satisfied by the store) bypass the bound. 0 = DefaultMaxPending.
	MaxPending int
	// RetainJobs caps completed jobs kept pollable (0 = DefaultRetainJobs).
	RetainJobs int
	// RetainAge is the eviction age floor: a completed job is never evicted
	// before it has been done this long, even over the RetainJobs cap — so a
	// client holding a fresh job ID cannot lose it to a burst of completions
	// between submit and poll. 0 = DefaultRetainAge.
	RetainAge time.Duration
	// Registry receives the scheduler's metric inventory (store, scheduler,
	// stage-latency, chaos series). nil = a fresh registry, retrievable via
	// Scheduler.Registry(); pass one to share a registry across subsystems.
	Registry *metrics.Registry
	// Logger receives the scheduler's structured log stream. Every record
	// carries the same identifiers the span traces and metric labels use
	// (job, key, unit_lo/unit_hi, outcome), so one grep on a job ID lines the
	// three signals up. nil discards — library embedders opt in, servers
	// (cmd/leakserved) wire a JSON handler.
	Logger *slog.Logger
}

// Defaults for Options zero values.
const (
	DefaultMaxPending = 256
	DefaultRetainJobs = 1024
	DefaultRetainAge  = time.Minute
)

// Retry policy for transient store failures and crashed unit chunks.
const (
	storeAttempts    = 5
	maxChunkAttempts = 12
	backoffBase      = 2 * time.Millisecond
	backoffMax       = 250 * time.Millisecond
)

// ChunkFaultInjector is the chunk runner's chaos hook (see internal/chaos):
// called with each unit range about to simulate, it may inject latency or
// panic. A nil injector — the production configuration — costs one atomic
// load per chunk.
type ChunkFaultInjector interface {
	ChunkFaults(lo, hi int)
}

type faultBox struct{ f ChunkFaultInjector }

// Scheduler owns the worker pool, the in-flight job table, and the store.
type Scheduler struct {
	store *store.Store
	opts  Options
	// sem is the worker-pool semaphore: at most cap(sem) units simulate at
	// once across all jobs.
	sem chan struct{}

	// baseCtx parents every job context; cancelBase(ErrDraining) is the
	// drain signal.
	baseCtx    context.Context
	cancelBase context.CancelCauseFunc

	mu       sync.Mutex
	inflight map[string]*Job
	jobs     map[string]*Job
	// finished is the completion-order FIFO behind the retention cap: a
	// long-running server must not grow s.jobs without bound.
	finished []*Job
	nextID   int
	pending  int // admitted cold jobs not yet finished
	draining bool
	wg       sync.WaitGroup // one count per execute goroutine

	// keyLocks stripes per-key work serialization over a fixed array —
	// bounded memory under unbounded distinct keys, at the cost of
	// occasional false sharing between keys on the same stripe. The lock is
	// held per chunk, not per job, so a long adaptive job cannot monopolize
	// its stripe for its whole lifetime.
	keyLocks [64]sync.Mutex

	// healthMu/health hold named liveness contributors (RegisterHealth):
	// subsystems layered on the scheduler — the campaign manager — publish
	// their own counts into /v1/healthz without the service importing them.
	healthMu sync.Mutex
	health   map[string]func() any

	// traceDrops counts span events evicted from every job's bounded trace
	// ring, exposed as leak_trace_drops_total.
	traceDrops atomic.Int64

	// log is the structured logger (Options.Logger; a discard logger when
	// unset, never nil).
	log *slog.Logger

	units atomic.Int64
	// wideUnits/narrowUnits/scalarUnits split the executed-unit total by how
	// the units ran (whole 256-lane blocks, partial blocks, scalar). Block
	// occupancy is a throughput property, never a correctness one — the
	// totals feed observability only.
	wideUnits   atomic.Int64
	narrowUnits atomic.Int64
	scalarUnits atomic.Int64
	// simNS/decodeNS aggregate the per-chunk stage timing (experiment.Metrics)
	// across every job, keeping the sim/decode balance observable on
	// /v1/healthz without a metrics dependency; the finer-grained per-chunk
	// distributions live in the ins histograms.
	simNS    atomic.Int64
	decodeNS atomic.Int64
	faults   atomic.Value // faultBox

	// start anchors leak_uptime_seconds and healthz uptime.
	start time.Time
	// ins is the scheduler's registered metric inventory; never nil.
	ins *instruments
}

// New returns a scheduler over st with the given worker-pool width
// (0 = GOMAXPROCS) and default admission/retention options.
func New(st *store.Store, workers int) *Scheduler {
	return NewWithOptions(st, Options{Workers: workers})
}

// NewWithOptions returns a scheduler over st configured by opts.
func NewWithOptions(st *store.Store, opts Options) *Scheduler {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = DefaultMaxPending
	}
	if opts.RetainJobs <= 0 {
		opts.RetainJobs = DefaultRetainJobs
	}
	if opts.RetainAge <= 0 {
		opts.RetainAge = DefaultRetainAge
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Scheduler{
		store:      st,
		opts:       opts,
		sem:        make(chan struct{}, opts.Workers),
		baseCtx:    ctx,
		cancelBase: cancel,
		inflight:   make(map[string]*Job),
		jobs:       make(map[string]*Job),
		health:     make(map[string]func() any),
		log:        opts.Logger,
		start:      time.Now(),
	}
	s.ins = newInstruments(opts.Registry, s)
	return s
}

// Registry returns the metrics registry carrying the scheduler's inventory
// (plus the store, chaos and — once NewHandler wraps it — HTTP series).
func (s *Scheduler) Registry() *metrics.Registry { return s.opts.Registry }

// Logger returns the scheduler's structured logger (a discard logger unless
// Options.Logger was set). Subsystems layered on the scheduler log through
// it so every signal lands in one correlated stream.
func (s *Scheduler) Logger() *slog.Logger { return s.log }

// RegisterHealth installs a named contributor whose value is embedded in the
// /v1/healthz payload under its name. Contributors are read per probe; they
// must be cheap and concurrency-safe. Re-registering a name replaces it.
func (s *Scheduler) RegisterHealth(name string, fn func() any) {
	s.healthMu.Lock()
	s.health[name] = fn
	s.healthMu.Unlock()
}

// healthContributions snapshots every registered health contributor.
func (s *Scheduler) healthContributions() map[string]any {
	s.healthMu.Lock()
	fns := make(map[string]func() any, len(s.health))
	for name, fn := range s.health {
		fns[name] = fn
	}
	s.healthMu.Unlock()
	out := make(map[string]any, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// TraceDrops returns how many span events have been evicted from per-job
// trace rings since construction (the leak_trace_drops_total reading).
func (s *Scheduler) TraceDrops() int64 { return s.traceDrops.Load() }

// Start returns when the scheduler was constructed (the uptime anchor).
func (s *Scheduler) Start() time.Time { return s.start }

// Inflight returns the number of deduplicated jobs currently executing or
// queued (warm and cold).
func (s *Scheduler) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// Store returns the scheduler's backing store.
func (s *Scheduler) Store() *store.Store { return s.store }

// UnitsExecuted returns the total number of simulation units this scheduler
// has run since construction. Warm-cache sweeps leave it unchanged — the
// figure-level cache tests assert exactly that.
func (s *Scheduler) UnitsExecuted() int64 { return s.units.Load() }

// StageNanos returns the cumulative worker-nanoseconds spent in the
// simulation and decode stages across every chunk this scheduler has run.
func (s *Scheduler) StageNanos() (simNS, decodeNS int64) {
	return s.simNS.Load(), s.decodeNS.Load()
}

// UnitsByWidth splits UnitsExecuted by how each unit ran: in a whole
// 256-lane block, in a partial block (range edges, shot-capped units), or on
// the scalar path.
func (s *Scheduler) UnitsByWidth() (wide, narrow, scalar int64) {
	return s.wideUnits.Load(), s.narrowUnits.Load(), s.scalarUnits.Load()
}

// Pending returns the number of admitted cold jobs not yet finished.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Draining reports whether Shutdown has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SetFaults installs (or, with nil, removes) a chunk-level fault injector.
// Intended for chaos tests and the chaossweep example; call before serving.
func (s *Scheduler) SetFaults(f ChunkFaultInjector) { s.faults.Store(faultBox{f}) }

func (s *Scheduler) loadFaults() ChunkFaultInjector {
	if b, ok := s.faults.Load().(faultBox); ok {
		return b.f
	}
	return nil
}

// Job is one submitted experiment request.
type Job struct {
	// ID is the scheduler-scoped job handle; Key the config content address.
	ID  string
	Key string

	cfg   experiment.Config
	prec  Precision
	done  chan struct{}
	warm  bool
	trace *trace

	// ctx governs the job's work; cancel sets the cancellation cause
	// (ErrCanceled, ErrDraining) and stopTimer releases the deadline timer.
	ctx       context.Context
	cancel    context.CancelCauseFunc
	stopTimer context.CancelFunc

	mu       sync.Mutex
	tally    *experiment.Tally
	result   *experiment.Result
	err      error
	unitsRun int
	metrics  experiment.Metrics
	doneAt   time.Time
}

// Status is a point-in-time snapshot of a job, also the service's interim
// wire format for streaming.
type Status struct {
	Job           string  `json:"job"`
	Key           string  `json:"key"`
	State         string  `json:"state"` // "running", "done" or "error"
	Shots         int     `json:"shots"`
	LogicalErrors int     `json:"logical_errors"`
	LER           float64 `json:"ler"`
	CIHalfWidth   float64 `json:"ci_half_width"`
	UnitsExecuted int     `json:"units_executed"`
	// SimNS/DecodeNS split the job's compute between the simulation and
	// decode stages (worker-nanoseconds summed across the pool).
	SimNS    int64 `json:"sim_ns"`
	DecodeNS int64 `json:"decode_ns"`
	// Cached is true when the job completed without simulating any unit —
	// the stored tally already satisfied the request.
	Cached bool `json:"cached"`
	// TraceEvents/Retries summarize the job's span trace (full events on
	// GET /v1/trace?job=).
	TraceEvents int    `json:"trace_events"`
	Retries     int    `json:"retries,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Done is closed when the job completes (successfully or not).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel asks the job to stop at the next unit boundary. Completed units
// stay merged in the store (checkpoint), so a later identical request covers
// only the remainder; the job itself finishes in state "error" with a
// cancellation cause. Cancelling a deduplicated job cancels it for every
// submitter sharing it.
func (j *Job) Cancel() { j.cancel(ErrCanceled) }

// Result returns the finished result. It blocks until the job completes.
func (j *Job) Result() (experiment.Result, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return experiment.Result{}, j.err
	}
	return *j.result, nil
}

// Tally returns a copy of the job's latest merged tally (interim while
// running, final once done), or nil before the first chunk lands.
func (j *Job) Tally() *experiment.Tally {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.tally == nil {
		return nil
	}
	return j.tally.Clone()
}

// Status snapshots the job.
func (j *Job) Status() Status {
	seq, retries := j.trace.counts()
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{Job: j.ID, Key: j.Key, State: "running", UnitsExecuted: j.unitsRun,
		SimNS: j.metrics.SimNS, DecodeNS: j.metrics.DecodeNS,
		TraceEvents: seq, Retries: retries}
	if t := j.tally; t != nil {
		st.Shots = t.Shots
		st.LogicalErrors = t.LogicalErrors
		if t.Shots > 0 {
			st.LER = float64(t.LogicalErrors) / float64(t.Shots)
		}
		st.CIHalfWidth = t.HalfWidth(1.96)
	}
	select {
	case <-j.done:
		if j.err != nil {
			st.State = "error"
			st.Error = j.err.Error()
		} else {
			st.State = "done"
			st.Cached = j.unitsRun == 0
		}
	default:
	}
	return st
}

func (j *Job) setTally(t *experiment.Tally) {
	j.mu.Lock()
	j.tally = t.Clone()
	j.mu.Unlock()
}

func (j *Job) fail(err error) {
	j.mu.Lock()
	j.err = err
	j.mu.Unlock()
}

func validate(cfg experiment.Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// Submit enqueues the request and returns its job. An identical request
// (same config key, shot target and precision) already in flight is
// deduplicated: the existing job is returned instead of scheduling new work.
// Submissions are refused with ErrDraining once Shutdown has begun, and cold
// submissions (those the store cannot already satisfy) are shed with an
// OverloadError when MaxPending jobs are pending.
func (s *Scheduler) Submit(cfg experiment.Config, prec Precision) (*Job, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if !prec.Adaptive() && cfg.Shots <= 0 {
		// A fixed-count request for zero shots would complete instantly as a
		// misleading empty success (LER 0 from zero simulation).
		return nil, fmt.Errorf("service: fixed-count request needs Shots > 0 (or set a precision target)")
	}
	key, err := cfg.Key()
	if err != nil {
		return nil, err
	}
	fp := fmt.Sprintf("%s|%d|%g|%d|%d|%d", key, cfg.Shots,
		prec.TargetCIHalfWidth, prec.MinShots, prec.MaxShots, prec.TimeoutMS)
	// Peek the store outside s.mu (it may hit the disk): a request the store
	// already satisfies is warm and bypasses admission control, so cached
	// traffic keeps flowing when cold traffic has saturated the queue.
	warm := s.satisfied(cfg, prec, key)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: %w", ErrDraining)
	}
	if j, ok := s.inflight[fp]; ok {
		s.mu.Unlock()
		return j, nil
	}
	if !warm && s.pending >= s.opts.MaxPending {
		ov := &OverloadError{Pending: s.pending, RetryAfter: s.retryAfterLocked()}
		s.mu.Unlock()
		s.ins.sheds.Inc()
		return nil, ov
	}
	s.nextID++
	j := &Job{
		ID:    fmt.Sprintf("j%d", s.nextID),
		Key:   key,
		cfg:   cfg,
		prec:  prec,
		done:  make(chan struct{}),
		warm:  warm,
		trace: newTrace(&s.traceDrops),
	}
	admitNote := "cold"
	if warm {
		admitNote = "warm"
	}
	j.trace.add(SpanEvent{Kind: SpanAdmitted, Note: admitNote})
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	stopTimer := func() {}
	if prec.TimeoutMS > 0 {
		ctx, stopTimer = context.WithTimeout(ctx, time.Duration(prec.TimeoutMS)*time.Millisecond)
	}
	j.ctx, j.cancel, j.stopTimer = ctx, cancel, stopTimer
	if !warm {
		s.pending++
	}
	s.inflight[fp] = j
	s.jobs[j.ID] = j
	s.wg.Add(1)
	s.mu.Unlock()
	s.log.Info("job admitted", "job", j.ID, "key", key, "warm", warm,
		"desc", cfg.Describe(), "adaptive", prec.Adaptive())
	go s.execute(j, fp)
	return j, nil
}

// satisfied reports whether the store already holds enough units for the
// request (a warm hit). Transient read errors count as cold — admission is
// the only consumer, and cold is the safe direction.
func (s *Scheduler) satisfied(cfg experiment.Config, prec Precision, key string) bool {
	t, err := s.store.Lookup(key)
	if err != nil || t == nil {
		return false
	}
	return needUnits(cfg, prec, t) == 0
}

// retryAfterLocked estimates how long a shed client should wait: roughly the
// queue depth over the pool width, clamped to [1s, 60s]. Callers hold s.mu.
func (s *Scheduler) retryAfterLocked() time.Duration {
	d := time.Duration(s.pending/s.opts.Workers) * time.Second
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// JobState classifies a job-ID lookup.
type JobState int

const (
	// JobUnknown: the ID was never issued by this scheduler.
	JobUnknown JobState = iota
	// JobFound: the job is available.
	JobFound
	// JobEvicted: the ID was issued, but the completed job has since been
	// evicted from the retention window.
	JobEvicted
)

// Job looks a job up by ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	j, st := s.Lookup(id)
	return j, st == JobFound
}

// Lookup looks a job up by ID, distinguishing "never issued" from "issued
// but evicted from the retention window" — clients polling an evicted job
// deserve a different answer than clients guessing IDs.
func (s *Scheduler) Lookup(id string) (*Job, JobState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, JobFound
	}
	if len(id) > 1 && id[0] == 'j' {
		if n, err := strconv.Atoi(id[1:]); err == nil && n >= 1 && n <= s.nextID {
			return nil, JobEvicted
		}
	}
	return nil, JobUnknown
}

// Run submits the request and blocks until its result is available.
func (s *Scheduler) Run(cfg experiment.Config, prec Precision) (experiment.Result, error) {
	j, err := s.Submit(cfg, prec)
	if err != nil {
		return experiment.Result{}, err
	}
	return j.Result()
}

// Runner adapts the scheduler to the figure harness's Options.Runner hook:
// every data point of a sweep is served through the store with the given
// precision. Errors surface as panics, matching experiment.Run's contract
// for invalid configs.
func (s *Scheduler) Runner(prec Precision) func(experiment.Config) experiment.Result {
	return func(cfg experiment.Config) experiment.Result {
		res, err := s.Run(cfg, prec)
		if err != nil {
			panic(fmt.Sprintf("service: %v", err))
		}
		return res
	}
}

// Shutdown drains the scheduler: no new submissions are admitted, running
// jobs are cancelled with cause ErrDraining — each finishes its in-flight
// units and checkpoints them into the store — and Shutdown returns once
// every job goroutine has exited (or ctx expires). Store writes are
// synchronous with merging, so a clean drain leaves nothing to flush: a
// restarted server re-runs only units no job had completed.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.cancelBase(ErrDraining)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown incomplete: %w", ctx.Err())
	}
}

func (s *Scheduler) keyLock(key string) *sync.Mutex {
	h := fnv.New64a()
	h.Write([]byte(key))
	return &s.keyLocks[h.Sum64()%uint64(len(s.keyLocks))]
}

// execute drives one job to completion: consult the store, issue unit chunks
// until the stopping rule fires, merge every chunk back into the store.
// Transient failures (store I/O, crashed chunks) back off and retry;
// cancellation, deadline expiry and drain stop the loop at the next unit
// boundary with everything completed so far already checkpointed.
func (s *Scheduler) execute(j *Job, fp string) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			j.fail(fmt.Errorf("service: job %s: %v", j.ID, r))
		}
		j.stopTimer()
		j.cancel(nil) // release the context; no-op if already cancelled
		s.ins.jobSeconds.Observe(time.Since(j.trace.start).Seconds())
		j.mu.Lock()
		jerr, cached := j.err, j.unitsRun == 0
		j.mu.Unlock()
		outcome := "done"
		switch {
		case jerr != nil:
			s.ins.jobsError.Inc()
			j.trace.add(SpanEvent{Kind: SpanDone, Note: jerr.Error()})
			outcome = "error"
		case cached:
			s.ins.jobsCached.Inc()
			j.trace.add(SpanEvent{Kind: SpanDone, Note: "cached"})
			outcome = "cached"
		default:
			s.ins.jobsDone.Inc()
			j.trace.add(SpanEvent{Kind: SpanDone})
		}
		logArgs := []any{"job", j.ID, "key", j.Key, "outcome", outcome,
			"units", j.unitsRunSoFar(), "dur_ms", float64(time.Since(j.trace.start)) / float64(time.Millisecond)}
		if jerr != nil {
			s.log.Warn("job done", append(logArgs, "err", jerr.Error())...)
		} else {
			s.log.Info("job done", logArgs...)
		}
		s.mu.Lock()
		delete(s.inflight, fp)
		if !j.warm {
			s.pending--
		}
		j.doneAt = time.Now()
		s.finished = append(s.finished, j)
		// Evict beyond the retention cap, oldest first, but never a job
		// younger than the age floor: a client that just submitted must get
		// a grace window to poll its result even under a completion burst.
		for len(s.finished) > s.opts.RetainJobs &&
			time.Since(s.finished[0].doneAt) > s.opts.RetainAge {
			delete(s.jobs, s.finished[0].ID)
			s.finished = s.finished[1:]
		}
		s.mu.Unlock()
		close(j.done)
	}()

	var tally *experiment.Tally
	attempts := 0
	for {
		if j.ctx.Err() != nil {
			j.fail(fmt.Errorf("service: job %s: %w", j.ID, context.Cause(j.ctx)))
			return
		}
		t, ran, m, done, err := s.step(j)
		if ran > 0 || m != (experiment.Metrics{}) {
			s.units.Add(int64(ran))
			j.mu.Lock()
			j.unitsRun += ran
			j.metrics.Add(m)
			j.mu.Unlock()
		}
		if t != nil {
			tally = t
			j.setTally(t)
		}
		if err != nil {
			if j.ctx.Err() != nil {
				continue // loop top reports the cancellation cause
			}
			attempts++
			if attempts >= maxChunkAttempts {
				j.fail(fmt.Errorf("service: job %s: giving up after %d attempts: %w", j.ID, attempts, err))
				return
			}
			s.ins.chunkReissues.Inc()
			j.trace.add(SpanEvent{Kind: SpanRetry, Attempt: attempts, Note: err.Error()})
			s.log.Warn("chunk retry", "job", j.ID, "key", j.Key,
				"attempt", attempts, "err", err.Error())
			sleepCtx(j.ctx, backoffDelay(attempts))
			continue
		}
		attempts = 0
		if done {
			break
		}
	}

	res := tally.ResultFor(j.cfg)
	j.mu.Lock()
	j.result = &res
	j.mu.Unlock()
}

// step performs one scheduling round: read the stored tally, decide how much
// more to run, simulate one chunk under the key's stripe lock, and merge the
// delta back. It returns the freshest tally it saw, how many units it
// simulated plus their stage timing, whether the request is now satisfied,
// and any error worth retrying. The stripe lock is held only for the
// duration of one chunk.
func (s *Scheduler) step(j *Job) (t *experiment.Tally, ran int, m experiment.Metrics, done bool, err error) {
	cfg := j.cfg
	fresh := func() *experiment.Tally {
		return experiment.NewTally(cfg.NumRounds(), cfg.UnitShots())
	}

	// Warm fast path: if the store already satisfies the request, answer
	// without touching the stripe lock — cached traffic must not queue
	// behind a busy stripe.
	cur, lerr := s.lookupRetry(j.ctx, j.Key)
	if lerr == nil {
		if cur == nil {
			cur = fresh()
		}
		if needUnits(cfg, j.prec, cur) == 0 {
			if j.unitsRunSoFar() == 0 {
				j.trace.add(SpanEvent{Kind: SpanStoreHit})
			}
			return cur, 0, m, true, nil
		}
	}

	// Work is needed: serialize on the stripe and re-read, so concurrent
	// jobs on one key never compute overlapping units.
	kl := s.keyLock(j.Key)
	kl.Lock()
	defer kl.Unlock()
	cur, lerr = s.lookupRetry(j.ctx, j.Key)
	if lerr != nil {
		return nil, 0, m, false, lerr
	}
	if cur == nil {
		cur = fresh()
	}
	chunk := needUnits(cfg, j.prec, cur)
	if chunk == 0 {
		return cur, 0, m, true, nil
	}
	// Units fill as a prefix; clamp the chunk to the contiguous uncovered
	// run so a merge can never overlap.
	lo := cur.Covered.FirstGap(0)
	hi := lo
	for hi < lo+chunk && !cur.Covered.Contains(hi) {
		hi++
	}
	j.trace.add(SpanEvent{Kind: SpanChunkIssue, UnitLo: lo, UnitHi: hi})
	s.log.Debug("chunk issued", "job", j.ID, "key", j.Key, "unit_lo", lo, "unit_hi", hi)
	delta, m, runErr := s.runChunk(j.ctx, cfg, lo, hi)
	if m.SimNS > 0 || m.DecodeNS > 0 {
		// Per-chunk stage distributions; the bare nanosecond totals for
		// /v1/healthz accumulate inside runChunk as before.
		s.ins.simSeconds.Observe(float64(m.SimNS) / 1e9)
		s.ins.decodeSeconds.Observe(float64(m.DecodeNS) / 1e9)
		j.trace.add(SpanEvent{Kind: SpanSimStage, UnitLo: lo, UnitHi: hi,
			DurMS: float64(m.SimNS) / 1e6})
		j.trace.add(SpanEvent{Kind: SpanDecode, UnitLo: lo, UnitHi: hi,
			DurMS: float64(m.DecodeNS) / 1e6})
	}
	if delta != nil && delta.Covered.Count() > 0 {
		// Checkpoint whatever completed — even a cancelled or crashed chunk
		// hands its finished units to the store, and exactness is preserved
		// because the covered bitsets stay disjoint.
		ran = delta.Covered.Count()
		if err := cur.Merge(delta); err != nil {
			return nil, ran, m, false, err
		}
		mergeStart := time.Now()
		if err := s.mergeRetry(j.ctx, j.Key, cfg.Describe(), delta); err != nil {
			// The units ran but the store never accepted them; drop the
			// in-memory view so the next step recomputes from the store's
			// truth instead of serving unmerged state.
			return nil, ran, m, false, err
		}
		mergeDur := time.Since(mergeStart)
		s.ins.mergeSeconds.Observe(mergeDur.Seconds())
		j.trace.add(SpanEvent{Kind: SpanStoreMerge, UnitLo: lo, UnitHi: hi,
			DurMS: float64(mergeDur) / float64(time.Millisecond)})
	}
	return cur, ran, m, false, runErr
}

// unitsRunSoFar reads the job's executed-unit count under its lock.
func (j *Job) unitsRunSoFar() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.unitsRun
}

// lookupRetry is store.Lookup with capped exponential backoff on transient
// read failures.
func (s *Scheduler) lookupRetry(ctx context.Context, key string) (*experiment.Tally, error) {
	var t *experiment.Tally
	err := retry(ctx, s.ins.storeRetryRead, func() error {
		var e error
		t, e = s.store.Lookup(key)
		return e
	})
	return t, err
}

// mergeRetry is store.Merge with capped exponential backoff on transient
// write failures. Retrying a failed merge is safe: the store only commits
// entries whose persist succeeded, so a retried delta never double-counts.
func (s *Scheduler) mergeRetry(ctx context.Context, key, desc string, delta *experiment.Tally) error {
	return retry(ctx, s.ins.storeRetryWrite, func() error {
		_, err := s.store.Merge(key, desc, delta)
		return err
	})
}

// retry runs op up to storeAttempts times with jittered exponential backoff,
// aborting early when ctx dies. Each re-attempt after a failure bumps
// retries.
func retry(ctx context.Context, retries *metrics.Counter, op func() error) error {
	var err error
	for attempt := 1; attempt <= storeAttempts; attempt++ {
		if attempt > 1 {
			retries.Inc()
			if !sleepCtx(ctx, backoffDelay(attempt-1)) {
				return err
			}
		}
		if err = op(); err == nil {
			return nil
		}
	}
	return err
}

// backoffDelay returns the jittered exponential backoff for the n-th retry
// (n >= 1): uniform in [d/2, d] with d = base·2^(n-1) capped at backoffMax.
// The jitter decorrelates clients and jobs retrying against one overloaded
// store.
func backoffDelay(attempt int) time.Duration {
	d := backoffBase << (attempt - 1)
	if d <= 0 || d > backoffMax {
		d = backoffMax
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// sleepCtx waits d or until ctx dies; it reports whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// needUnits applies the stopping rule to the current tally and returns how
// many more units to issue (0 = the request is satisfied).
func needUnits(cfg experiment.Config, prec Precision, t *experiment.Tally) int {
	us := t.UnitShots
	if !prec.Adaptive() {
		// Fixed-count mode: cover Config.Shots, reusing whatever the store
		// already holds.
		need := cfg.NumUnits()
		if have := t.Covered.Count(); have < need {
			return need - have
		}
		return 0
	}
	minShots, maxShots := prec.bounds(us)
	if t.Shots >= maxShots {
		return 0
	}
	if t.Shots >= minShots && t.HalfWidth(1.96) <= prec.TargetCIHalfWidth {
		return 0
	}
	// Grow geometrically: reach MinShots first, then double coverage per
	// round of refinement, clamped to MaxShots.
	next := t.Shots
	if t.Shots < minShots {
		next = minShots - t.Shots
	}
	if next < us {
		next = us
	}
	if t.Shots+next > maxShots {
		next = maxShots - t.Shots
	}
	units := (next + us - 1) / us
	// Round adaptive growth up to the engine's block size so chunks run as
	// whole 4-unit blocks instead of ending in a partial block, which costs
	// more per unit — unless the extra units would bust the shot budget,
	// where the partial block is the correct trade. Fixed-count mode is
	// never rounded: it must cover exactly NumUnits.
	if align := cfg.UnitAlign(); align > 1 {
		if aligned := (units + align - 1) / align * align; t.Shots+aligned*us <= maxShots {
			units = aligned
		}
	}
	return units
}

// runChunk simulates units [lo, hi), fanning contiguous subranges across the
// worker pool, and returns the merged tally of every unit that completed
// plus the summed sim/decode stage timing across the parts.
// On failure (crashed part, cancellation) the partial tally comes back
// alongside the error so the caller can checkpoint it; the missing units are
// simply re-issued later — per-unit seeding makes the re-run bit-identical.
func (s *Scheduler) runChunk(ctx context.Context, cfg experiment.Config, lo, hi int) (*experiment.Tally, experiment.Metrics, error) {
	cfg.Workers = 1 // parallelism comes from the pool, one unit stream per task
	n := hi - lo
	parts := cap(s.sem)
	if parts > n {
		parts = n
	}
	// Interior split points floor to the engine's block boundaries so a
	// chunk fanned across the pool doesn't shred its 4-unit blocks into
	// partial blocks; the chunk's own ends stay ragged if the caller's range
	// is (alignment only redistributes work, never changes results).
	align := cfg.UnitAlign()
	bound := func(i int) int {
		r := lo + i*n/parts
		if align > 1 && r > lo && r < hi {
			if f := r / align * align; f >= lo {
				r = f
			}
		}
		return r
	}
	tallies := make([]*experiment.Tally, parts)
	metrics := make([]experiment.Metrics, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for i := 0; i < parts; i++ {
		a, b := bound(i), bound(i+1)
		if a == b {
			continue
		}
		wg.Add(1)
		go func(i, a, b int) {
			defer wg.Done()
			// Convert simulation panics into job errors here, inside the
			// pool goroutine — execute's recover cannot see them.
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("service: units [%d, %d): %v", a, b, r)
				}
			}()
			select {
			case s.sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-s.sem }()
			if f := s.loadFaults(); f != nil {
				f.ChunkFaults(a, b) // may sleep or panic (recovered above)
			}
			tallies[i], metrics[i], errs[i] = experiment.RunUnitsMeteredCtx(ctx, cfg, a, b)
		}(i, a, b)
	}
	wg.Wait()
	var total *experiment.Tally
	var m experiment.Metrics
	var firstErr error
	for i := range tallies {
		m.Add(metrics[i])
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
		t := tallies[i]
		if t == nil || t.Covered.Count() == 0 {
			continue
		}
		if total == nil {
			total = t
			continue
		}
		if err := total.Merge(t); err != nil {
			return nil, m, err
		}
	}
	s.simNS.Add(m.SimNS)
	s.decodeNS.Add(m.DecodeNS)
	s.wideUnits.Add(m.WideUnits)
	s.narrowUnits.Add(m.NarrowUnits)
	s.scalarUnits.Add(m.ScalarUnits)
	if total == nil && firstErr == nil {
		firstErr = fmt.Errorf("service: empty chunk [%d, %d)", lo, hi)
	}
	return total, m, firstErr
}
