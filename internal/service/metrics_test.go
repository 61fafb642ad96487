package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/store"
)

// scrapeRegistry renders the registry and re-parses it, so every assertion
// below also exercises the text-format round trip the real scrape path uses.
func scrapeRegistry(t *testing.T, reg *metrics.Registry) *metrics.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatalf("registry exposition failed to parse: %v", err)
	}
	return snap
}

func mustValue(t *testing.T, snap *metrics.Snapshot, name string, kv ...string) float64 {
	t.Helper()
	v, ok := snap.Value(name, kv...)
	if !ok {
		t.Fatalf("metric %s %v absent from scrape", name, kv)
	}
	return v
}

// TestMetricsColdWarmCounters: one cold run then its warm re-run, asserted
// through a full scrape — the unit counter matches the scheduler, job
// outcomes split done/cached, the store series show the miss-then-hit
// pattern, and the gauges settle back to idle.
func TestMetricsColdWarmCounters(t *testing.T) {
	sched := newTestScheduler(t, t.TempDir())
	cfg := experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 2 * 64,
		Seed: 9, Policy: core.PolicyEraser}

	j, err := sched.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Result(); err != nil {
		t.Fatal(err)
	}
	cold := scrapeRegistry(t, sched.Registry())
	units := mustValue(t, cold, "leak_sched_units_total")
	if units == 0 || units != float64(sched.UnitsExecuted()) {
		t.Fatalf("leak_sched_units_total = %v, scheduler says %d", units, sched.UnitsExecuted())
	}
	byWidth := mustValue(t, cold, "leak_sched_units_by_width_total", "width", "256") +
		mustValue(t, cold, "leak_sched_units_by_width_total", "width", "64")
	if byWidth != units {
		t.Fatalf("width-split units sum to %v, unlabeled total is %v", byWidth, units)
	}
	if v := mustValue(t, cold, "leak_sched_jobs_total", "outcome", "done"); v != 1 {
		t.Fatalf("jobs done = %v, want 1", v)
	}
	if v := mustValue(t, cold, "leak_sched_job_seconds_count"); v != 1 {
		t.Fatalf("job latency observations = %v, want 1", v)
	}
	if v := mustValue(t, cold, "leak_sched_stage_seconds_count", "stage", "sim"); v < 1 {
		t.Fatalf("no sim-stage observations on a cold run")
	}
	if v := mustValue(t, cold, "leak_store_lookups_total", "result", "miss"); v < 1 {
		t.Fatalf("cold run recorded no store misses")
	}
	if v := mustValue(t, cold, "leak_store_merges_total"); v < 1 {
		t.Fatalf("cold run recorded no merges")
	}
	if v := mustValue(t, cold, "leak_store_bytes_total", "dir", "written"); v <= 0 {
		t.Fatalf("cold run persisted no bytes")
	}

	j2, err := sched.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Result(); err != nil {
		t.Fatal(err)
	}
	if !j2.Status().Cached {
		t.Fatal("warm re-run not reported cached")
	}
	warm := scrapeRegistry(t, sched.Registry())
	if v := mustValue(t, warm, "leak_sched_units_total"); v != units {
		t.Fatalf("warm re-run moved the unit counter: %v -> %v", units, v)
	}
	if v := mustValue(t, warm, "leak_sched_jobs_total", "outcome", "cached"); v != 1 {
		t.Fatalf("jobs cached = %v, want 1", v)
	}
	hitsCold, _ := cold.Value("leak_store_lookups_total", "result", "hit")
	if v := mustValue(t, warm, "leak_store_lookups_total", "result", "hit"); v <= hitsCold {
		t.Fatalf("warm re-run recorded no new store hits (%v -> %v)", hitsCold, v)
	}
	if v := mustValue(t, warm, "leak_sched_queue_depth"); v != 0 {
		t.Fatalf("idle queue depth = %v, want 0", v)
	}
	if v := mustValue(t, warm, "leak_sched_inflight_jobs"); v != 0 {
		t.Fatalf("idle inflight gauge = %v, want 0", v)
	}
	if v := mustValue(t, warm, "leak_sched_workers"); v != float64(sched.opts.Workers) {
		t.Fatalf("workers gauge = %v, want %d", v, sched.opts.Workers)
	}
	if v := mustValue(t, warm, "leak_build_info"); v != 1 {
		t.Fatalf("leak_build_info = %v, want the constant 1", v)
	}
}

// TestMetricsDoNotPerturbTallies: the whole observability layer (counters,
// histograms, span traces) must sit outside the seeded RNG paths — a fully
// instrumented scheduler run stays bit-identical to direct RunUnits.
func TestMetricsDoNotPerturbTallies(t *testing.T) {
	sched := newTestScheduler(t, t.TempDir())
	cfg := experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 3 * 64,
		Seed: 41, Policy: core.PolicyAlways}
	j, err := sched.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Result(); err != nil {
		t.Fatal(err)
	}
	tal := j.Tally()
	if ref := referenceTally(cfg, tal); !reflect.DeepEqual(ref, tal) {
		t.Fatalf("instrumented run diverged from direct RunUnits:\nwant %+v\ngot  %+v", ref, tal)
	}
}

// TestTraceSpanSequence pins the span schema: a cold fixed-count job emits
// admitted → chunk_issued → sim_stage → decode_stage → store_merge → done,
// and its warm re-run admitted(warm) → store_hit → done(cached).
func TestTraceSpanSequence(t *testing.T) {
	sched := newTestScheduler(t, t.TempDir())
	cfg := experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 2 * 64,
		Seed: 17, Policy: core.PolicyEraser}

	j, err := sched.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Result(); err != nil {
		t.Fatal(err)
	}
	tv := j.Trace()
	kinds := make([]string, len(tv.Events))
	for i, ev := range tv.Events {
		kinds[i] = ev.Kind
	}
	want := []string{SpanAdmitted, SpanChunkIssue, SpanSimStage, SpanDecode, SpanStoreMerge, SpanDone}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("cold trace %v, want %v", kinds, want)
	}
	if tv.Events[0].Note != "cold" {
		t.Fatalf("admission note = %q, want cold", tv.Events[0].Note)
	}
	if ev := tv.Events[1]; ev.UnitLo != 0 || ev.UnitHi != 2 {
		t.Fatalf("chunk span covers [%d, %d), want [0, 2)", ev.UnitLo, ev.UnitHi)
	}
	if tv.Dropped != 0 || tv.Retries != 0 {
		t.Fatalf("fault-free trace reports dropped=%d retries=%d", tv.Dropped, tv.Retries)
	}
	for i := 1; i < len(tv.Events); i++ {
		if tv.Events[i].Seq != tv.Events[i-1].Seq+1 {
			t.Fatalf("span sequence numbers not contiguous: %+v", tv.Events)
		}
		if tv.Events[i].AtMS < tv.Events[i-1].AtMS {
			t.Fatalf("span timestamps went backwards: %+v", tv.Events)
		}
	}

	w, err := sched.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Result(); err != nil {
		t.Fatal(err)
	}
	wv := w.Trace()
	wkinds := make([]string, len(wv.Events))
	for i, ev := range wv.Events {
		wkinds[i] = ev.Kind
	}
	if want := []string{SpanAdmitted, SpanStoreHit, SpanDone}; !reflect.DeepEqual(wkinds, want) {
		t.Fatalf("warm trace %v, want %v", wkinds, want)
	}
	if wv.Events[0].Note != "warm" || wv.Events[2].Note != "cached" {
		t.Fatalf("warm trace notes = %q/%q, want warm/cached", wv.Events[0].Note, wv.Events[2].Note)
	}
	if st := w.Status(); st.TraceEvents != 3 || st.Retries != 0 {
		t.Fatalf("warm status summarizes %d events, %d retries; want 3, 0", st.TraceEvents, st.Retries)
	}
}

// TestMetricsAndTraceHTTP drives the full HTTP surface: submit, poll, then
// check /v1/trace, the extended /v1/healthz, and a /metrics scrape that both
// parses and carries the middleware's per-route series.
func TestMetricsAndTraceHTTP(t *testing.T) {
	sched := newTestScheduler(t, t.TempDir())
	srv := httptest.NewServer(NewHandler(sched))
	defer srv.Close()

	body := `{"config": {"distance": 3, "cycles": 2, "p": 2e-3, "shots": 128, "seed": 5, "policy": "eraser"}}`
	resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/run: %d", resp.StatusCode)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/result?job=" + rr.Job)
		if err != nil {
			t.Fatal(err)
		}
		var res ResultResponse
		err = json.NewDecoder(r.Body).Decode(&res)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Status.State == "error" {
			t.Fatalf("job failed: %s", res.Status.Error)
		}
		if res.Status.State == "done" {
			if res.Status.TraceEvents == 0 {
				t.Fatal("done status summarizes zero trace events")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		time.Sleep(25 * time.Millisecond)
	}

	r, err := http.Get(srv.URL + "/v1/trace?job=" + rr.Job)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace: %d", r.StatusCode)
	}
	var tv TraceView
	if err := json.NewDecoder(r.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if tv.Job != rr.Job || tv.State != "done" || len(tv.Events) == 0 {
		t.Fatalf("trace view %+v", tv)
	}
	if tv.Events[0].Kind != SpanAdmitted || tv.Events[len(tv.Events)-1].Kind != SpanDone {
		t.Fatalf("trace does not run admitted..done: %+v", tv.Events)
	}
	if _, err := http.Get(srv.URL + "/v1/trace?job=nope"); err != nil {
		t.Fatal(err)
	}

	r, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(r.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	build, ok := hz["build"].(map[string]any)
	if !ok {
		t.Fatalf("healthz build block missing: %v", hz)
	}
	if gv, _ := build["go_version"].(string); gv == "" {
		t.Fatalf("healthz build.go_version empty: %v", build)
	}
	if up, ok := hz["uptime_seconds"].(float64); !ok || up < 0 {
		t.Fatalf("healthz uptime_seconds = %v", hz["uptime_seconds"])
	}
	if _, ok := hz["store_corruption_repairs"]; !ok {
		t.Fatalf("healthz missing store_corruption_repairs: %v", hz)
	}

	r, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := r.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the 0.0.4 text format", ct)
	}
	snap, err := metrics.ParseText(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatalf("/metrics exposition failed to parse: %v", err)
	}
	if v := mustValue(t, snap, "leak_http_requests_total", "route", "/v1/run", "code", "202"); v != 1 {
		t.Fatalf("submit request counter = %v, want 1", v)
	}
	if v := mustValue(t, snap, "leak_http_request_seconds_count", "route", "/v1/result"); v < 1 {
		t.Fatalf("no /v1/result latency observations")
	}
	if v := mustValue(t, snap, "leak_http_requests_total", "route", "/v1/trace", "code", "404"); v != 1 {
		t.Fatalf("trace 404 counter = %v, want 1", v)
	}
	if v := mustValue(t, snap, "leak_sched_units_total"); v <= 0 {
		t.Fatalf("server-side unit counter = %v after a cold job", v)
	}
}

// TestChaosFaultMetrics: with a seeded injector wired into the store and the
// pool, the leak_chaos_faults_total series must agree exactly with the
// injector's own Stats, the store's I/O error counters must count every
// injected failure, and the retry/reissue counters must show the scheduler
// actually recovering.
func TestChaosFaultMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaos.Config{
		Seed:          2027,
		StoreReadErr:  0.3,
		StoreWriteErr: 0.3,
		TornWrite:     0.3,
		ChunkPanic:    0.25,
		ChunkDelayP:   0.3,
		MaxChunkDelay: 2 * time.Millisecond,
	})
	st.SetFaults(inj)
	sched := NewWithOptions(st, Options{Workers: 4})
	sched.SetFaults(inj)

	for i := 0; i < 4; i++ {
		cfg := experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 3 * 64,
			Seed: uint64(300 + i), Policy: core.PolicyEraser}
		j, err := sched.Submit(cfg, Precision{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Result(); err != nil {
			t.Fatalf("job %d failed under chaos (faults %v): %v", i, inj.Stats(), err)
		}
	}

	stats := inj.Stats()
	if stats.Total() == 0 {
		t.Fatal("soak injected no faults — the schedule tested nothing")
	}
	snap := scrapeRegistry(t, sched.Registry())
	byKind := map[string]int64{
		"read_err":   stats.ReadErrs,
		"write_err":  stats.WriteErrs,
		"torn_write": stats.TornWrites,
		"panic":      stats.Panics,
		"delay":      stats.Delays,
	}
	for kind, want := range byKind {
		if got := mustValue(t, snap, "leak_chaos_faults_total", "kind", kind); got != float64(want) {
			t.Errorf("leak_chaos_faults_total{kind=%q} = %v, injector counted %d", kind, got, want)
		}
	}
	if got := mustValue(t, snap, "leak_store_io_errors_total", "op", "read"); got != float64(stats.ReadErrs) {
		t.Errorf("store read errors = %v, injector counted %d", got, stats.ReadErrs)
	}
	if got := mustValue(t, snap, "leak_store_io_errors_total", "op", "write"); got != float64(stats.WriteErrs) {
		t.Errorf("store write errors = %v, injector counted %d", got, stats.WriteErrs)
	}
	// Every failed first attempt forces at least one counted re-attempt.
	if stats.WriteErrs > 0 {
		if got := mustValue(t, snap, "leak_sched_store_retries_total", "op", "write"); got < 1 {
			t.Errorf("write faults injected but no store write retries counted")
		}
	}
	if stats.Panics > 0 {
		if got := mustValue(t, snap, "leak_sched_chunk_reissues_total"); got < 1 {
			t.Errorf("chunk panics injected but no re-issues counted")
		}
	}
}

// TestCorruptionRepairMetrics tears a persisted entry on disk and re-opens
// the store: the scrape (and /v1/healthz's repair count) must show exactly
// one detected corruption and one repair, and the recomputed tally must
// match the fault-free reference.
func TestCorruptionRepairMetrics(t *testing.T) {
	dir := t.TempDir()
	cfg := experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 2 * 64,
		Seed: 77, Policy: core.PolicyEraser}
	key := cfg.Key()

	warmer := newTestScheduler(t, dir)
	j, err := warmer.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Result(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := warmer.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, key+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("persisted entry missing: %v", err)
	}
	if err := os.WriteFile(path, []byte(`{"key":"torn`), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewWithOptions(st, Options{Workers: 2})
	j2, err := sched.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Result(); err != nil {
		t.Fatal(err)
	}
	if st2 := j2.Status(); st2.Cached {
		t.Fatal("torn entry served as a cache hit instead of a detected miss")
	}
	tal := j2.Tally()
	if ref := referenceTally(cfg, tal); !reflect.DeepEqual(ref, tal) {
		t.Fatalf("repaired tally diverged from fault-free run:\nwant %+v\ngot  %+v", ref, tal)
	}

	snap := scrapeRegistry(t, sched.Registry())
	if got := mustValue(t, snap, "leak_store_corruptions_total", "event", "detected"); got != 1 {
		t.Fatalf("corruptions detected = %v, want 1", got)
	}
	if got := mustValue(t, snap, "leak_store_corruptions_total", "event", "repaired"); got != 1 {
		t.Fatalf("corruptions repaired = %v, want 1", got)
	}
	if c := st.Counters(); c.CorruptionsRepaired != 1 {
		t.Fatalf("store counters report %d repairs, want 1", c.CorruptionsRepaired)
	}
}
