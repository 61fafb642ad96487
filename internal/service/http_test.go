package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/store"
)

func newTestServer(t *testing.T) (*httptest.Server, *Scheduler) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := New(st, 0)
	srv := httptest.NewServer(NewHandler(sched))
	t.Cleanup(srv.Close)
	return srv, sched
}

func submit(t *testing.T, srv *httptest.Server, body string) RunResponse {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/run: %d %s", resp.StatusCode, buf.String())
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

func pollDone(t *testing.T, srv *httptest.Server, job string) ResultResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(srv.URL + "/v1/result?job=" + job)
		if err != nil {
			t.Fatal(err)
		}
		var rr ResultResponse
		err = json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch rr.Status.State {
		case "done":
			return rr
		case "error":
			t.Fatalf("job %s failed: %s", job, rr.Status.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", job)
	return ResultResponse{}
}

const smokeBody = `{
  "config": {"distance": 3, "cycles": 2, "p": 0.002, "shots": 256,
             "seed": 7, "policy": "eraser"},
  "precision": {}
}`

// TestServerSmoke is the end-to-end smoke the CI job runs: submit a config,
// poll it to completion, then assert the second identical request is a pure
// cache hit (zero units executed, same numbers).
func TestServerSmoke(t *testing.T) {
	srv, sched := newTestServer(t)

	first := submit(t, srv, smokeBody)
	res1 := pollDone(t, srv, first.Job)
	if res1.Status.UnitsExecuted == 0 {
		t.Fatal("cold request executed no units")
	}
	if len(res1.Result) == 0 {
		t.Fatal("done response carried no result payload")
	}
	var body1 map[string]any
	if err := json.Unmarshal(res1.Result, &body1); err != nil {
		t.Fatal(err)
	}
	if body1["shots"].(float64) < 256 {
		t.Fatalf("result covers %v shots, want >= 256", body1["shots"])
	}

	cold := sched.UnitsExecuted()
	second := submit(t, srv, smokeBody)
	res2 := pollDone(t, srv, second.Job)
	if !res2.Status.Cached {
		t.Fatal("second identical request was not a cache hit")
	}
	if n := sched.UnitsExecuted() - cold; n != 0 {
		t.Fatalf("second identical request executed %d units", n)
	}
	var body2 map[string]any
	if err := json.Unmarshal(res2.Result, &body2); err != nil {
		t.Fatal(err)
	}
	if body1["ler"] != body2["ler"] || body1["logical_errors"] != body2["logical_errors"] {
		t.Fatalf("cache hit returned different numbers: %v vs %v", body1, body2)
	}
}

func TestServerStreamDeliversInterimAndFinal(t *testing.T) {
	srv, _ := newTestServer(t)
	rr := submit(t, srv, `{
	  "config": {"distance": 3, "cycles": 2, "p": 0.002, "shots": 512,
	             "seed": 3, "policy": "always"},
	  "precision": {"target_ci_half_width": 0.01, "min_shots": 128}
	}`)
	resp, err := http.Get(srv.URL + "/v1/stream?job=" + rr.Job)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last Status
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("stream delivered no tallies")
	}
	if last.State != "done" {
		t.Fatalf("stream ended in state %q, want done", last.State)
	}
	if last.CIHalfWidth > 0.01 {
		t.Fatalf("final half-width %v above target", last.CIHalfWidth)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	for name, tc := range map[string]struct{ body, want string }{
		"policy":   {`{"config": {"distance": 3, "p": 1e-3, "shots": 64, "policy": "nope"}}`, "policy"},
		"distance": {`{"config": {"distance": 4, "p": 1e-3, "shots": 64, "policy": "eraser"}}`, "distance"},
		"json":     {`{nope`, "bad request body"},
		// Negative counts are refused up front. Unchecked, cycles crash the
		// job in NewTally, rounds run (and key) the 10-cycle default, and
		// shots slip past the fixed-count check under a precision target.
		"cycles": {`{"config": {"distance": 3, "cycles": -1, "p": 1e-3, "shots": 64, "policy": "nolrc"}}`, "cycles"},
		"rounds": {`{"config": {"distance": 3, "rounds": -5, "p": 1e-3, "shots": 64, "policy": "nolrc"}}`, "rounds"},
		"shots": {`{"config": {"distance": 3, "p": 1e-3, "shots": -5, "policy": "nolrc"},
			"precision": {"target_ci_half_width": 0.05}}`, "shots"},
		// Sizes above the caps are refused before any layout, decoder or
		// tally is built for them.
		"distance 1001": {`{"config": {"distance": 1001, "cycles": 10, "p": 1e-3, "shots": 64, "policy": "nolrc"}}`, "distance"},
		"rounds 2^40":   {`{"config": {"distance": 3, "rounds": 1099511627776, "p": 1e-3, "shots": 64, "policy": "nolrc"}}`, "rounds"},
		"cycles x d":    {`{"config": {"distance": 25, "cycles": 41, "p": 1e-3, "shots": 64, "policy": "nolrc"}}`, "cycles"},
		// Unknown fields are refused, not dropped: a retired knob or a
		// misspelling would otherwise run a different experiment.
		"retired field":  {`{"config": {"distance": 3, "p": 1e-3, "shots": 64, "policy": "always", "use_union_find": true}}`, "use_union_find"},
		"misspelt field": {`{"config": {"distance": 3, "p": 1e-3, "shots": 64, "policy": "nolrc", "no_leakge": true}}`, "no_leakge"},
	} {
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, msg)
		} else if !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: error does not name %q: %s", name, tc.want, msg)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/result?job=j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestServerRejectsOversizedBody: /v1/run bodies over MaxRequestBytes are
// refused with 413 instead of being buffered without bound.
func TestServerRejectsOversizedBody(t *testing.T) {
	srv, _ := newTestServer(t)
	huge := `{"config": {"distance": 3, "p": 0.002, "shots": 64, "policy": "eraser", "profile_spec": "` +
		strings.Repeat("a", MaxRequestBytes+1024) + `"}}`
	resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestServerDeleteCancelsJob: DELETE /v1/run?job=ID cancels a running job;
// its result endpoint then reports the cancellation as a job error, and
// deleting an unknown handle is a 404.
func TestServerDeleteCancelsJob(t *testing.T) {
	srv, sched := newTestServer(t)
	blocker := &blockingInjector{release: make(chan struct{}), started: make(chan [2]int, 1)}
	sched.SetFaults(blocker)

	rr := submit(t, srv, smokeBody)
	<-blocker.started // the job is wedged mid-chunk

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/run?job="+rr.Job, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job: status %d, want 200", resp.StatusCode)
	}
	close(blocker.release)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/result?job=" + rr.Job)
		if err != nil {
			t.Fatal(err)
		}
		var res ResultResponse
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Status.State == "error" {
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("failed job result: status %d, want 500", resp.StatusCode)
			}
			if !strings.Contains(res.Status.Error, "canceled") {
				t.Fatalf("cancelled job error %q does not mention cancellation", res.Status.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reported cancellation; state %q", res.Status.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/run?job=nope", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestServerShedsWithRetryAfter: over-capacity cold submissions answer 429
// with a Retry-After header, while a warm (store-satisfied) request on the
// same saturated server still completes as a cache hit. Once the scheduler
// drains, every submission, warm ones too, answers 503 with Retry-After.
func TestServerShedsWithRetryAfter(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewWithOptions(st, Options{Workers: 1, MaxPending: 1})
	srv := httptest.NewServer(NewHandler(sched))
	t.Cleanup(srv.Close)

	warmBody := `{"config": {"distance": 3, "cycles": 2, "p": 0.002, "shots": 128,
	              "seed": 40, "policy": "always"}}`
	warm := submit(t, srv, warmBody)
	pollDone(t, srv, warm.Job)

	blocker := &blockingInjector{release: make(chan struct{}), started: make(chan [2]int, 1)}
	sched.SetFaults(blocker)
	coldBody := func(seed int) string {
		return `{"config": {"distance": 3, "cycles": 2, "p": 0.002, "shots": 128,
		         "seed": ` + strconv.Itoa(seed) + `, "policy": "always"}}`
	}
	cold := submit(t, srv, coldBody(41))
	<-blocker.started // pool saturated, pending queue full

	resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(coldBody(42)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response carries no Retry-After header")
	}

	warm2 := submit(t, srv, warmBody)
	if res := pollDone(t, srv, warm2.Job); !res.Status.Cached {
		t.Fatal("warm request on saturated server was not served from cache")
	}

	close(blocker.release)
	pollDone(t, srv, cold.Job)

	if err := sched.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(warmBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 response carries no Retry-After header")
	}
}

// TestServerEvictedJobAnswers410: polling a job that aged out of the
// retention window is 410 Gone — a different answer than a guessed handle,
// which is 404.
func TestServerEvictedJobAnswers410(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewWithOptions(st, Options{RetainJobs: 1, RetainAge: time.Nanosecond})
	srv := httptest.NewServer(NewHandler(sched))
	t.Cleanup(srv.Close)

	first := submit(t, srv, `{"config": {"distance": 3, "cycles": 1, "p": 0.002, "shots": 64,
	                          "seed": 45, "policy": "nolrc"}}`)
	pollDone(t, srv, first.Job)
	time.Sleep(2 * time.Millisecond) // pass the age floor
	second := submit(t, srv, `{"config": {"distance": 3, "cycles": 1, "p": 0.002, "shots": 64,
	                           "seed": 46, "policy": "nolrc"}}`)
	pollDone(t, srv, second.Job)

	for job, want := range map[string]int{
		first.Job: http.StatusGone,
		// Spellings Submit never issues parse as an issued number but are
		// guessed handles all the same.
		"j01": http.StatusNotFound,
		"j+1": http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + "/v1/result?" + url.Values{"job": {job}}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("job %q: status %d, want %d", job, resp.StatusCode, want)
		}
	}
}

func TestConfigSpecRoundTrip(t *testing.T) {
	spec := ConfigSpec{Distance: 5, Cycles: 3, P: 1e-3, Shots: 100, Seed: 2,
		Policy: "eraser+m", Protocol: "dqlr", Basis: "X", Transport: "exchange"}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Distance != 5 || cfg.Noise == nil || cfg.Noise.Transport != noise.TransportExchange {
		t.Fatalf("spec resolved wrong: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// FuzzConfigSpec: a /v1/run config spec is either rejected — by the JSON
// decoder, ConfigSpec.Config or Config.Validate — or it resolves to
// between 1 and experiment.MaxRounds rounds and keeps its content key when
// the spec is re-encoded and decoded. The seed corpus in testdata/fuzz
// holds the negative-cycles and negative-rounds requests that once passed
// validation, an overflowing cycle count, a distance above the cap, inline
// and generated profiles, and malformed specs.
func FuzzConfigSpec(f *testing.F) {
	key := func(t *testing.T, spec ConfigSpec) (string, bool) {
		cfg, err := spec.Config()
		if err != nil || cfg.Validate() != nil {
			return "", false
		}
		if n := cfg.NumRounds(); n < 1 || n > experiment.MaxRounds {
			t.Fatalf("validated config resolves to %d rounds", n)
		}
		return cfg.Key(), true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec ConfigSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		k, ok := key(t, spec)
		if !ok {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		var back ConfigSpec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-encoded spec does not decode: %v\n%s", err, enc)
		}
		if k2, ok := key(t, back); !ok || k2 != k {
			t.Fatalf("re-encoded spec keys to %q (accepted %v), want %q\n%s", k2, ok, k, enc)
		}
	})
}
