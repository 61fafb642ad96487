package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/store"
)

// referenceTally recomputes, fault-free, exactly the units a chaotic run
// covered: the merge of direct RunUnits over every maximal covered segment.
// Bit-equality against it is the exactness invariant — injected faults may
// change *which* units a job ends up covering (re-issued chunks, partial
// checkpoints), but never the statistics of the units it reports.
func referenceTally(cfg experiment.Config, covered *experiment.Tally) *experiment.Tally {
	limit := len(covered.Covered.Words) * 64
	ref := experiment.NewTally(cfg.NumRounds(), cfg.UnitShots())
	for a := 0; a < limit; {
		if !covered.Covered.Contains(a) {
			a++
			continue
		}
		b := a
		for b < limit && covered.Covered.Contains(b) {
			b++
		}
		if err := ref.Merge(experiment.RunUnits(cfg, a, b)); err != nil {
			panic(err)
		}
		a = b
	}
	return ref
}

// waitGoroutines polls until the goroutine count settles at or below base
// (plus slack for runtime helpers).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: %d now vs %d at start", runtime.NumGoroutine(), base)
}

// TestChaosSoakBitExact is the headline robustness invariant: under seeded
// injection of store read/write errors, torn writes, worker panics and unit
// latency, every job that completes returns a tally bit-identical to a
// fault-free run of the same units — and after a drain, no goroutines or
// stripe locks are leaked. A second, fault-free pass over the survivors of
// the same (possibly torn) store directory must agree too.
func TestChaosSoakBitExact(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Rates are chosen so every fault kind fires during the soak while the
	// chance of exhausting a job's chunk-attempt budget stays negligible
	// (attempts only reset on a fully clean round).
	inj := chaos.New(chaos.Config{
		Seed:          2026,
		StoreReadErr:  0.3,
		StoreWriteErr: 0.3,
		TornWrite:     0.5,
		ChunkPanic:    0.15,
		ChunkDelayP:   0.3,
		MaxChunkDelay: 2 * time.Millisecond,
	})
	st.SetFaults(inj)
	sched := NewWithOptions(st, Options{Workers: 4})
	sched.SetFaults(inj)

	type req struct {
		cfg  experiment.Config
		prec Precision
	}
	var reqs []req
	for i, pol := range []core.Kind{core.PolicyNone, core.PolicyAlways, core.PolicyEraser} {
		reqs = append(reqs, req{cfg: experiment.Config{Distance: 3, Cycles: 2, P: 2e-3,
			Shots: 3 * 64, Seed: uint64(100 + i), Policy: pol}})
	}
	// One adaptive point rides along: its stopping unit count may differ
	// under faults, but whatever it covers must still be bit-exact.
	reqs = append(reqs, req{
		cfg:  experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Seed: 7, Policy: core.PolicyAlways},
		prec: Precision{TargetCIHalfWidth: 0.03, MinShots: 128, MaxShots: 1 << 12},
	})

	jobs := make([]*Job, len(reqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		j, err := sched.Submit(rq.cfg, rq.prec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
		wg.Add(1)
		go func() { defer wg.Done(); <-j.Done() }()
	}
	wg.Wait()

	for i, j := range jobs {
		if _, err := j.Result(); err != nil {
			t.Fatalf("job %d failed under chaos (faults %v): %v", i, inj.Stats(), err)
		}
		tal := j.Tally()
		if !reqs[i].prec.Adaptive() {
			if need := reqs[i].cfg.NumUnits(); tal.Covered.Count() < need {
				t.Fatalf("job %d covered %d units, want >= %d", i, tal.Covered.Count(), need)
			}
		}
		if ref := referenceTally(reqs[i].cfg, tal); !reflect.DeepEqual(ref, tal) {
			t.Fatalf("job %d tally diverged from fault-free run:\nwant %+v\ngot  %+v", i, ref, tal)
		}
	}
	if inj.Stats().Total() == 0 {
		t.Fatal("soak injected no faults — the schedule tested nothing")
	}

	// Drain and check nothing leaked.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sched.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseGoroutines)

	// Fault-free restart over the same directory: torn entries surface as
	// detected misses and recompute; everything a fresh scheduler serves
	// must again equal the fault-free reference.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sched2 := NewWithOptions(st2, Options{Workers: 4})
	for i, rq := range reqs {
		j, err := sched2.Submit(rq.cfg, rq.prec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Result(); err != nil {
			t.Fatalf("restarted job %d failed: %v", i, err)
		}
		tal := j.Tally()
		if ref := referenceTally(rq.cfg, tal); !reflect.DeepEqual(ref, tal) {
			t.Fatalf("restarted job %d diverged from fault-free run", i)
		}
	}
}

// blockingInjector deterministically wedges every chunk until released —
// the backpressure tests use it to hold the worker pool saturated without
// timing assumptions.
type blockingInjector struct {
	release chan struct{}
	// started gets the range of each chunk that reached the pool while it
	// has buffer room; a chunk that finds it full skips the send.
	started chan [2]int
}

func (b *blockingInjector) ChunkFaults(lo, hi int) {
	select {
	case b.started <- [2]int{lo, hi}:
	default:
	}
	<-b.release
}

// TestChaosBackpressureShedsColdServesWarm is the admission-control
// guarantee: with the worker pool wedged and the pending queue full, cold
// submissions are shed with an OverloadError carrying a Retry-After hint,
// while warm-cache submissions bypass the queue and complete with zero units
// executed — cached traffic must not starve behind cold traffic.
func TestChaosBackpressureShedsColdServesWarm(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewWithOptions(st, Options{Workers: 1, MaxPending: 2})

	warmCfg := experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 2 * 64,
		Seed: 50, Policy: core.PolicyAlways}
	if _, err := sched.Run(warmCfg, Precision{}); err != nil {
		t.Fatal(err)
	}
	warmUnits := sched.UnitsExecuted()

	blocker := &blockingInjector{release: make(chan struct{}), started: make(chan [2]int, 16)}
	sched.SetFaults(blocker)

	coldCfg := func(seed uint64) experiment.Config {
		return experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 2 * 64,
			Seed: seed, Policy: core.PolicyAlways}
	}
	j1, err := sched.Submit(coldCfg(51), Precision{})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := sched.Submit(coldCfg(52), Precision{})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started // first cold chunk holds the pool's only worker

	// Queue full: the next cold submission must shed, not wait.
	_, err = sched.Submit(coldCfg(53), Precision{})
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("over-capacity cold submit returned %v, want OverloadError", err)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("OverloadError carries no Retry-After hint: %+v", ov)
	}

	// Warm traffic still flows: same config as the pre-warmed run, served
	// from the store without executing a unit or queueing on the pool.
	warmDone := make(chan error, 1)
	var warmJob *Job
	go func() {
		j, err := sched.Submit(warmCfg, Precision{})
		if err != nil {
			warmDone <- err
			return
		}
		warmJob = j
		_, err = j.Result()
		warmDone <- err
	}()
	select {
	case err := <-warmDone:
		if err != nil {
			t.Fatalf("warm submit failed under saturation: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("warm request starved behind saturated cold traffic")
	}
	if n := sched.UnitsExecuted() - warmUnits; n != 0 {
		t.Fatalf("warm request executed %d units, want 0", n)
	}
	if !warmJob.Status().Cached {
		t.Fatal("warm request not reported as cached")
	}

	close(blocker.release)
	for _, j := range []*Job{j1, j2} {
		if _, err := j.Result(); err != nil {
			t.Fatalf("cold job failed after release: %v", err)
		}
	}
}

// gateInjector lets the first chunk through untouched and wedges every
// later one until released — a deterministic way to freeze a job between
// chunks with part of its units completed.
type gateInjector struct {
	mu      sync.Mutex
	passed  bool
	wedged  chan struct{} // one send per wedged chunk
	release chan struct{}
}

func (g *gateInjector) ChunkFaults(lo, hi int) {
	g.mu.Lock()
	first := !g.passed
	g.passed = true
	g.mu.Unlock()
	if first {
		return
	}
	select {
	case g.wedged <- struct{}{}:
	default:
	}
	<-g.release
}

// TestChaosCancelKeepsCheckpoint: Job.Cancel stops the job at a unit
// boundary with a distinct cause; units completed before the cancel stay
// merged in the store, and a re-run covers only the remainder, bit-exactly.
func TestChaosCancelKeepsCheckpoint(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewWithOptions(st, Options{Workers: 2})
	// A target no 64-unit budget can meet makes the job issue growing
	// chunks: the gate lets the first run and wedges the second, so the
	// cancel deterministically lands with part of the job merged.
	gate := &gateInjector{wedged: make(chan struct{}, 4), release: make(chan struct{})}
	sched.SetFaults(gate)
	cfg := experiment.Config{Distance: 3, Cycles: 3, P: 2e-3, Shots: 64 * 64,
		Seed: 60, Policy: core.PolicyAlways}
	prec := Precision{TargetCIHalfWidth: 1e-9, MaxShots: cfg.Shots}

	j, err := sched.Submit(cfg, prec)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.wedged // the second chunk is frozen; the first is merged
	j.Cancel()
	close(gate.release)
	if _, err := j.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled job returned %v, want ErrCanceled", err)
	}
	sched.SetFaults(nil)

	key := cfg.Key()
	var checkpointed int
	if tal := st.Get(key); tal != nil {
		checkpointed = tal.Covered.Count()
	}
	if checkpointed == 0 || checkpointed >= cfg.NumUnits() {
		t.Fatalf("checkpoint holds %d units, want a non-empty proper subset of %d",
			checkpointed, cfg.NumUnits())
	}
	before := sched.UnitsExecuted()
	res, err := sched.Run(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	ran := int(sched.UnitsExecuted() - before)
	if got, want := ran, cfg.NumUnits()-checkpointed; got != want {
		t.Fatalf("re-run executed %d units, want the %d-unit remainder (checkpoint %d)",
			got, want, checkpointed)
	}
	want := experiment.RunUnits(cfg, 0, cfg.NumUnits()).ResultFor(cfg)
	if res.LogicalErrors != want.LogicalErrors || res.Shots != want.Shots {
		t.Fatalf("post-cancel result diverged: %+v vs %+v", res, want)
	}
}

// claimCtx is a job context whose Err reports context.Canceled after its
// first n calls. The runner asks Err once per 4-unit block it claims, so a
// one-worker chunk run under it is cancelled after exactly n blocks, and
// those blocks finish.
type claimCtx struct {
	context.Context // Background: no deadline, no values
	n               atomic.Int64
	once            sync.Once
	done            chan struct{}
}

func newClaimCtx(n int64) *claimCtx {
	c := &claimCtx{Context: context.Background(), done: make(chan struct{})}
	c.n.Store(n)
	return c
}

func (c *claimCtx) Done() <-chan struct{} { return c.done }

func (c *claimCtx) Err() error {
	if c.n.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestChaosCancelMidChunkCheckpoints: a chunk cancelled after some of its
// blocks ran hands exactly those units to the store, step reports the
// cancellation, and a later request runs only the rest, bit-exactly.
func TestChaosCancelMidChunkCheckpoints(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewWithOptions(st, Options{Workers: 1})
	cfg := experiment.Config{Distance: 3, Cycles: 3, P: 2e-3, Shots: 16 * 64,
		Seed: 61, Policy: core.PolicyAlways}
	// One 16-unit chunk on one runner worker; the cancel lands at the third
	// block claim.
	j := &Job{ID: "j1", Key: cfg.Key(), cfg: cfg, ctx: newClaimCtx(2),
		trace: newTrace(&sched.traceDrops)}
	_, ran, _, done, err := sched.step(j)
	if !errors.Is(err, context.Canceled) || done {
		t.Fatalf("cancelled step returned done=%v err=%v, want context.Canceled", done, err)
	}
	if want := 2 * experiment.BlockUnits; ran != want {
		t.Fatalf("cancelled step ran %d units, want %d", ran, want)
	}
	tal := st.Get(cfg.Key())
	if tal == nil {
		t.Fatal("cancelled chunk checkpointed nothing")
	}
	for u := 0; u < cfg.NumUnits(); u++ {
		if tal.Covered.Contains(u) != (u < ran) {
			t.Fatalf("checkpoint covers %d units, want exactly [0, %d)", tal.Covered.Count(), ran)
		}
	}
	if ref := referenceTally(cfg, tal); !reflect.DeepEqual(ref, tal) {
		t.Fatalf("checkpoint diverged from RunUnits:\nwant %+v\ngot  %+v", ref, tal)
	}

	res, err := sched.Run(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(sched.UnitsExecuted()), cfg.NumUnits()-ran; got != want {
		t.Fatalf("re-run executed %d units, want the %d-unit remainder", got, want)
	}
	want := experiment.RunUnits(cfg, 0, cfg.NumUnits()).ResultFor(cfg)
	if res.LogicalErrors != want.LogicalErrors || res.Shots != want.Shots {
		t.Fatalf("post-cancel result diverged: %+v vs %+v", res, want)
	}
}

// TestChaosDeadlineExpiresJob: Precision.TimeoutMS bounds a job's wall
// clock; an expired job fails with context.DeadlineExceeded and the
// scheduler stays healthy for the next request.
func TestChaosDeadlineExpiresJob(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewWithOptions(st, Options{Workers: 1})
	blocker := &blockingInjector{release: make(chan struct{}), started: make(chan [2]int, 1)}
	sched.SetFaults(blocker)

	cfg := experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 2 * 64,
		Seed: 61, Policy: core.PolicyAlways}
	j, err := sched.Submit(cfg, Precision{TimeoutMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the chunk wedged past the deadline, then release: the expired
	// context stops the run before any unit starts.
	<-blocker.started
	time.Sleep(60 * time.Millisecond)
	close(blocker.release)
	if _, err := j.Result(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired job returned %v, want DeadlineExceeded", err)
	}
	if st := j.Status(); st.State != "error" || st.Error == "" {
		t.Fatalf("expired job status %+v, want error state with message", st)
	}
}

// TestChaosGracefulShutdownCheckpoints is the drain guarantee: Shutdown
// mid-sweep stops admitting, cancels the running job at a unit boundary, and
// loses none of the merged units — a restart over the same store covers only
// the remainder and lands on the fault-free numbers.
func TestChaosGracefulShutdownCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewWithOptions(st, Options{Workers: 2})
	cfg := experiment.Config{Distance: 3, Cycles: 3, P: 2e-3, Shots: 64 * 64,
		Seed: 70, Policy: core.PolicyEraser}

	j, err := sched.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // mid-sweep
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sched.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The drained job either finished in time or reports the drain cause.
	if _, err := j.Result(); err != nil && !errors.Is(err, ErrDraining) {
		t.Fatalf("drained job returned %v, want nil or ErrDraining", err)
	}
	// No new work after drain.
	if _, err := sched.Submit(cfg, Precision{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit returned %v, want ErrDraining", err)
	}

	key := cfg.Key()
	var checkpointed int
	if tal := st.Get(key); tal != nil {
		checkpointed = tal.Covered.Count()
	}

	// "Restart": fresh store + scheduler over the same directory.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sched2 := NewWithOptions(st2, Options{Workers: 2})
	res, err := sched2.Run(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(sched2.UnitsExecuted()), cfg.NumUnits()-checkpointed; got != want {
		t.Fatalf("restart executed %d units, want the %d-unit remainder (checkpoint %d)",
			got, want, checkpointed)
	}
	want := experiment.RunUnits(cfg, 0, cfg.NumUnits()).ResultFor(cfg)
	if res.LogicalErrors != want.LogicalErrors || res.Shots != want.Shots || res.LER != want.LER {
		t.Fatalf("post-restart result diverged: %+v vs %+v", res, want)
	}
}

// TestEvictionAgeFloorAndDistinctState covers the Submit/eviction race fix:
// completed jobs younger than RetainAge survive a completion burst over the
// RetainJobs cap, and once a job is genuinely evicted its ID resolves to
// JobEvicted — distinct from an ID that never existed.
func TestEvictionAgeFloorAndDistinctState(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	run := func(s *Scheduler, seed uint64) *Job {
		t.Helper()
		j, err := s.Submit(experiment.Config{Distance: 3, Cycles: 1, P: 2e-3,
			Shots: 64, Seed: seed, Policy: core.PolicyNone}, Precision{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Result(); err != nil {
			t.Fatal(err)
		}
		return j
	}

	// Age floor: cap of 1, but an hour of retention — a burst of completions
	// must not evict fresh jobs a client is about to poll.
	floor := NewWithOptions(st, Options{RetainJobs: 1, RetainAge: time.Hour})
	first := run(floor, 80)
	for seed := uint64(81); seed < 84; seed++ {
		run(floor, seed)
	}
	if _, state := floor.Lookup(first.ID); state != JobFound {
		t.Fatalf("fresh job %s evicted despite the age floor (state %d)", first.ID, state)
	}

	// With the floor disabled (nanosecond age), the cap evicts — and the
	// evicted ID answers differently from a never-issued one.
	evicting := NewWithOptions(st, Options{RetainJobs: 1, RetainAge: time.Nanosecond})
	first = run(evicting, 90)
	time.Sleep(time.Millisecond)
	for seed := uint64(91); seed < 94; seed++ {
		run(evicting, seed)
		time.Sleep(time.Millisecond)
	}
	if _, state := evicting.Lookup(first.ID); state != JobEvicted {
		t.Fatalf("old job %s not reported evicted (state %d)", first.ID, state)
	}
	if _, state := evicting.Lookup("j99999"); state != JobUnknown {
		t.Fatal("never-issued ID reported as evicted")
	}
	if _, state := evicting.Lookup("bogus"); state != JobUnknown {
		t.Fatal("malformed ID reported as evicted")
	}
}
