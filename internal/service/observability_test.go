package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
)

// TestStreamClientDisconnect pins the /v1/stream lifecycle: when a client
// goes away mid-stream, the handler goroutine must exit at its next wake
// instead of waiting against a dead connection for as long as the job runs;
// and a job that makes no progress streams its connect line and nothing
// more until a tally lands.
func TestStreamClientDisconnect(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	// One worker, and a large blocker job submitted first: the second job
	// stays admitted-but-unstarted (state "running", no progress) for the
	// blocker's whole runtime, giving the streams a stable window to
	// disconnect inside.
	sched := New(st, 1)
	srv := httptest.NewServer(NewHandler(sched))
	defer srv.Close()

	blocker := submit(t, srv, `{
	  "config": {"distance": 7, "cycles": 7, "p": 0.001, "shots": 1048576,
	             "seed": 21, "policy": "eraser"},
	  "precision": {}
	}`)
	target := submit(t, srv, `{
	  "config": {"distance": 7, "cycles": 7, "p": 0.001, "shots": 1048576,
	             "seed": 22, "policy": "eraser"},
	  "precision": {}
	}`)

	before := runtime.NumGoroutine()
	const streams = 4
	for i := 0; i < streams; i++ {
		resp, err := http.Get(srv.URL + "/v1/stream?job=" + target.Job)
		if err != nil {
			t.Fatal(err)
		}
		// Read the first interim snapshot so the handler is demonstrably
		// inside its loop, then vanish.
		if !bufio.NewScanner(resp.Body).Scan() {
			t.Fatal("stream closed before first snapshot")
		}
		resp.Body.Close()
	}

	// Every handler goroutine must unwind while the job is still running.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	leaked := runtime.NumGoroutine() - before
	if leaked > 0 {
		t.Errorf("%d goroutine(s) leaked after %d stream disconnects", leaked, streams)
	}

	// The queued target has no tally update to report: one line, then quiet.
	ctx, stop := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer stop()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/stream?job="+target.Job, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		lines++
	}
	resp.Body.Close()
	if lines != 1 {
		t.Errorf("queued job's stream wrote %d lines in 300ms, want 1", lines)
	}

	// The disconnects must not have disturbed the jobs themselves.
	cancel := func(job string) {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/run?job="+job, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	cancel(target.Job)
	cancel(blocker.Job)
}

// TestTraceRingDropCounter pins the bounded-ring accounting: events past the
// cap evict oldest-first and every eviction lands on the shared drop counter
// that backs leak_trace_drops_total.
func TestTraceRingDropCounter(t *testing.T) {
	var drops atomic.Int64
	tr := newTrace(&drops)
	const n = traceCap + 137
	for i := 0; i < n; i++ {
		tr.add(SpanEvent{Kind: SpanSimStage, UnitLo: i, UnitHi: i + 1})
	}
	if got := drops.Load(); got != 137 {
		t.Fatalf("drop counter = %d, want 137", got)
	}
	events, dropped, _ := tr.snapshot()
	if len(events) != traceCap {
		t.Fatalf("ring holds %d events, want %d", len(events), traceCap)
	}
	if dropped != 137 {
		t.Fatalf("snapshot reports %d dropped, want 137", dropped)
	}
	// Oldest events were the ones evicted.
	if events[0].UnitLo != 137 {
		t.Fatalf("ring kept event %d first, want 137", events[0].UnitLo)
	}
}

// TestTraceDropsExposed checks the scheduler-level surfaces: the registry
// counter and the /v1/healthz field both read the shared drop count.
func TestTraceDropsExposed(t *testing.T) {
	srv, sched := newTestServer(t)
	sched.traceDrops.Add(9)

	var buf bytes.Buffer
	if err := sched.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("leak_trace_drops_total"); !ok || v != 9 {
		t.Fatalf("leak_trace_drops_total = %v (ok=%v), want 9", v, ok)
	}

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if got := health["trace_drops"]; got != float64(9) {
		t.Fatalf("healthz trace_drops = %v, want 9", got)
	}
}

// TestRegisterHealthContribution checks the healthz extension hook: a
// registered contributor appears under its key, and built-in keys win on
// collision.
func TestRegisterHealthContribution(t *testing.T) {
	srv, sched := newTestServer(t)
	sched.RegisterHealth("widget", func() any { return map[string]any{"spins": 3} })
	sched.RegisterHealth("ok", func() any { return "shadowed" }) // collides with built-in

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	widget, ok := health["widget"].(map[string]any)
	if !ok || widget["spins"] != float64(3) {
		t.Fatalf("healthz widget contribution = %v", health["widget"])
	}
	if health["ok"] != true {
		t.Fatalf("built-in ok key shadowed by contributor: %v", health["ok"])
	}
}

// syncBuffer makes a bytes.Buffer safe for the scheduler's concurrent log
// writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Split(bytes.TrimSpace(b.buf.Bytes()), []byte("\n"))
}

// TestSchedulerLogCorrelation pins the log/trace/metric correlation contract:
// structured records carry the same job and key IDs the HTTP API returns, a
// cold job logs admitted -> done with outcome "done", and a warm re-submit
// logs outcome "cached".
func TestSchedulerLogCorrelation(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	var logs syncBuffer
	sched := NewWithOptions(st, Options{
		Logger: slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})

	cfg, err := (ConfigSpec{Distance: 3, Cycles: 2, P: 2e-3, Shots: 256,
		Seed: 7, Policy: "eraser"}).Config()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sched.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Result(); err != nil {
		t.Fatal(err)
	}
	warm, err := sched.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Result(); err != nil {
		t.Fatal(err)
	}

	type record struct {
		Msg     string `json:"msg"`
		Job     string `json:"job"`
		Key     string `json:"key"`
		Outcome string `json:"outcome"`
		Warm    bool   `json:"warm"`
		UnitLo  *int   `json:"unit_lo"`
	}
	byMsgJob := map[string][]record{}
	chunks := 0
	for _, line := range logs.lines() {
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec.Msg == "chunk issued" {
			chunks++
			if rec.Job != cold.ID {
				t.Fatalf("chunk issued for unexpected job %q", rec.Job)
			}
			continue
		}
		byMsgJob[rec.Msg+"/"+rec.Job] = append(byMsgJob[rec.Msg+"/"+rec.Job], rec)
	}
	if chunks == 0 {
		t.Fatal("no debug-level chunk records logged")
	}

	for _, job := range []*Job{cold, warm} {
		adm := byMsgJob["job admitted/"+job.ID]
		done := byMsgJob["job done/"+job.ID]
		if len(adm) != 1 || len(done) != 1 {
			t.Fatalf("job %s: %d admitted / %d done records", job.ID, len(adm), len(done))
		}
		for _, rec := range []record{adm[0], done[0]} {
			if rec.Key != job.Key {
				t.Fatalf("job %s record carries key %q, want %q", job.ID, rec.Key, job.Key)
			}
		}
	}
	if out := byMsgJob["job done/"+cold.ID][0].Outcome; out != "done" {
		t.Fatalf("cold job outcome %q, want done", out)
	}
	if out := byMsgJob["job done/"+warm.ID][0].Outcome; out != "cached" {
		t.Fatalf("warm job outcome %q, want cached", out)
	}
	if !byMsgJob["job admitted/"+warm.ID][0].Warm {
		t.Fatal("warm admission not marked warm")
	}
}
