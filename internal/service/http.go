package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/noise"
	"repro/internal/surfacecode"
)

// MaxRequestBytes bounds a /v1/run or /v1/campaign request body; inline
// device profiles for large distances fit comfortably under 1 MiB.
const MaxRequestBytes = 1 << 20

// ConfigSpec is the wire form of experiment.Config: names instead of enum
// ordinals, and no function-valued fields, so it round-trips through JSON.
type ConfigSpec struct {
	Distance  int     `json:"distance"`
	Cycles    int     `json:"cycles,omitempty"`
	Rounds    int     `json:"rounds,omitempty"`
	P         float64 `json:"p"`
	Shots     int     `json:"shots,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	Policy    string  `json:"policy"`
	Protocol  string  `json:"protocol,omitempty"`  // "swap" (default) or "dqlr"
	Basis     string  `json:"basis,omitempty"`     // "Z" (default) or "X"
	Transport string  `json:"transport,omitempty"` // "conservative" (default) or "exchange"
	NoLeakage bool    `json:"no_leakage,omitempty"`
	// Profile carries a full inline device profile (per-site calibrated
	// rates); ProfileSpec a generator string ("hotspot:1e-3,3,8", see
	// device.GeneratorSpecs) instantiated at Distance with the request's
	// transport model. ProfileSpec wins when both are set; either overrides
	// the uniform P/Transport/NoLeakage model.
	Profile     *device.Profile `json:"profile,omitempty"`
	ProfileSpec string          `json:"profile_spec,omitempty"`
}

// PolicyNames lists the accepted policy spellings.
var PolicyNames = []string{"nolrc", "always", "eraser", "eraser+m", "optimal"}

func parsePolicy(name string) (core.Kind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "nolrc", "none", "no-lrc":
		return core.PolicyNone, nil
	case "always", "always-lrcs":
		return core.PolicyAlways, nil
	case "eraser":
		return core.PolicyEraser, nil
	case "eraser+m", "eraserm", "eraser-m":
		return core.PolicyEraserM, nil
	case "optimal":
		return core.PolicyOptimal, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (valid: %s)", name, strings.Join(PolicyNames, ", "))
	}
}

// Config resolves the spec into an experiment.Config.
func (cs ConfigSpec) Config() (experiment.Config, error) {
	var cfg experiment.Config
	pol, err := parsePolicy(cs.Policy)
	if err != nil {
		return cfg, err
	}
	cfg = experiment.Config{
		Distance: cs.Distance,
		Cycles:   cs.Cycles,
		Rounds:   cs.Rounds,
		P:        cs.P,
		Shots:    cs.Shots,
		Seed:     cs.Seed,
		Policy:   pol,
	}
	switch strings.ToLower(cs.Protocol) {
	case "", "swap":
	case "dqlr":
		cfg.Protocol = circuit.ProtocolDQLR
	default:
		return cfg, fmt.Errorf("unknown protocol %q (valid: swap, dqlr)", cs.Protocol)
	}
	switch strings.ToUpper(cs.Basis) {
	case "", "Z":
		cfg.Basis = surfacecode.KindZ
	case "X":
		cfg.Basis = surfacecode.KindX
	default:
		return cfg, fmt.Errorf("unknown basis %q (valid: Z, X)", cs.Basis)
	}
	np := noise.Standard(cs.P)
	transport := noise.TransportConservative
	switch strings.ToLower(cs.Transport) {
	case "", "conservative":
	case "exchange":
		transport = noise.TransportExchange
		np = np.WithTransport(transport)
	default:
		return cfg, fmt.Errorf("unknown transport %q (valid: conservative, exchange)", cs.Transport)
	}
	if cs.NoLeakage {
		np = noise.WithoutLeakage(cs.P)
	}
	cfg.Noise = &np
	switch {
	case cs.ProfileSpec != "":
		sp, err := device.ParseSpec(cs.ProfileSpec)
		if err != nil {
			return cfg, err
		}
		if !sp.Generator() {
			return cfg, fmt.Errorf("profile_spec %q is not a generator (valid: %s); send inline rates via profile instead",
				cs.ProfileSpec, device.GeneratorSpecs)
		}
		prof, err := sp.For(cs.Distance, transport)
		if err != nil {
			return cfg, err
		}
		cfg.Profile = prof
	case cs.Profile != nil:
		cfg.Profile = cs.Profile
	}
	return cfg, nil
}

// RunRequest is the POST /v1/run body.
type RunRequest struct {
	Config    ConfigSpec `json:"config"`
	Precision Precision  `json:"precision"`
}

// RunResponse acknowledges a submitted job.
type RunResponse struct {
	Job    string `json:"job"`
	Key    string `json:"key"`
	Status Status `json:"status"`
}

// ResultResponse is the GET /v1/result payload.
type ResultResponse struct {
	Status Status          `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Route is an extra endpoint mounted onto the handler NewHandler builds.
// Subsystems layered on the scheduler (the campaign manager) contribute
// their endpoints this way, so they ride the same per-route metrics
// middleware as the built-in routes.
type Route struct {
	Pattern string
	Handler http.Handler
}

// NewHandler returns the HTTP front end over the scheduler:
//
//	POST   /v1/run     submit a config (+ optional precision); 202 + job
//	                   handle, 429 + Retry-After when the queue is full,
//	                   503 while draining
//	DELETE /v1/run     ?job=ID — cancel; completed units stay checkpointed
//	GET    /v1/result  ?job=ID — result when done (200), interim status
//	                   (202), 410 once evicted from the retention window
//	GET    /v1/stream  ?job=ID — ND-JSON status stream: one line on connect,
//	                   one per tally update, then the final snapshot
//	GET    /v1/trace   ?job=ID — the job's span-event trace (admission,
//	                   chunk issues, sim/decode stage times, merges, retries)
//	GET    /v1/healthz liveness, build identity, uptime + load counters
//	                   (plus every RegisterHealth contribution)
//	GET    /metrics    Prometheus text-format exposition of every registered
//	                   store/scheduler/stage/chaos/HTTP series
//
// Every route — extras included — is wrapped in a middleware recording
// per-route request latency (leak_http_request_seconds) and status-code
// counts (leak_http_requests_total) into the scheduler's registry.
func NewHandler(s *Scheduler, extra ...Route) http.Handler {
	mux := newInstrumentedMux(s.Registry())
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			handleSubmit(s, w, r)
		case http.MethodDelete:
			job, ok := lookupJob(s, w, r)
			if !ok {
				return
			}
			job.Cancel()
			WriteJSON(w, http.StatusOK, RunResponse{Job: job.ID, Key: job.Key, Status: job.Status()})
		default:
			WriteError(w, http.StatusMethodNotAllowed, "POST or DELETE only")
		}
	})
	mux.HandleFunc("/v1/result", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookupJob(s, w, r)
		if !ok {
			return
		}
		st := job.Status()
		resp := ResultResponse{Status: st}
		code := http.StatusAccepted
		switch st.State {
		case "done":
			res, err := job.Result()
			if err != nil {
				WriteError(w, http.StatusInternalServerError, "job %s: %v", job.ID, err)
				return
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				// A result that cannot be encoded is a server failure, not a
				// silently-empty 200.
				WriteError(w, http.StatusInternalServerError, "job %s: encode result: %v", job.ID, err)
				return
			}
			resp.Result = buf.Bytes()
			code = http.StatusOK
		case "error":
			code = http.StatusInternalServerError
		}
		WriteJSON(w, code, resp)
	})
	mux.HandleFunc("/v1/stream", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookupJob(s, w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		ctx := r.Context()
		for {
			// A disconnected client must stop the loop at its next wake: a
			// select with an update and the dead context both ready picks
			// either, and the update branch would write into a dead
			// connection.
			if ctx.Err() != nil {
				return
			}
			// Take the signal before the snapshot, so an update landing
			// between the two wakes the loop again.
			changed := job.Changed()
			st := job.Status()
			if err := enc.Encode(st); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if st.State != "running" {
				return
			}
			select {
			case <-changed:
			case <-job.Done():
			case <-ctx.Done():
				return
			}
		}
	})
	mux.HandleFunc("/v1/trace", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookupJob(s, w, r)
		if !ok {
			return
		}
		WriteJSON(w, http.StatusOK, job.Trace())
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		simNS, decodeNS := s.StageNanos()
		// Build identity + uptime let a liveness probe tell a fresh restart
		// from a long-running instance; the corruption-repair count surfaces
		// silent disk damage the store healed on its own.
		payload := map[string]any{
			"ok":                       true,
			"build":                    BuildInfo(),
			"uptime_seconds":           time.Since(s.Start()).Seconds(),
			"units_executed":           s.UnitsExecuted(),
			"pending_jobs":             s.Pending(),
			"inflight_jobs":            s.Inflight(),
			"draining":                 s.Draining(),
			"sim_ns":                   simNS,
			"decode_ns":                decodeNS,
			"trace_drops":              s.TraceDrops(),
			"store_corruption_repairs": s.Store().Counters().CorruptionsRepaired,
		}
		// Registered contributors (the campaign manager's counts) merge in
		// under their names; built-in keys win on collision.
		for name, v := range s.healthContributions() {
			if _, taken := payload[name]; !taken {
				payload[name] = v
			}
		}
		WriteJSON(w, http.StatusOK, payload)
	})
	mux.Handle("/metrics", s.Registry().Handler())
	return mux
}

// instrumentedMux is an http.ServeMux whose registered routes are wrapped in
// the metrics middleware. Wrapping happens at registration, so the request
// path does one histogram observe and one counter lookup — no pattern
// re-matching.
type instrumentedMux struct {
	*http.ServeMux
	reg *metrics.Registry
}

func newInstrumentedMux(reg *metrics.Registry) *instrumentedMux {
	return &instrumentedMux{ServeMux: http.NewServeMux(), reg: reg}
}

func (m *instrumentedMux) HandleFunc(route string, h http.HandlerFunc) {
	m.Handle(route, h)
}

func (m *instrumentedMux) Handle(route string, h http.Handler) {
	hist := m.reg.Histogram("leak_http_request_seconds",
		"request latency by route", httpSecondsBuckets, "route", route)
	m.ServeMux.Handle(route, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		hist.Observe(time.Since(start).Seconds())
		m.reg.Counter("leak_http_requests_total",
			"requests by route and status code",
			"route", route, "code", strconv.Itoa(sw.code)).Inc()
	}))
}

// statusWriter captures the response status for the request counter while
// passing Flush through, so the ND-JSON /v1/stream endpoint keeps streaming.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleSubmit decodes and admits one POST /v1/run request.
func handleSubmit(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	cfg, err := req.Config.Config()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad config: %v", err)
		return
	}
	job, err := s.Submit(cfg, req.Precision)
	if err != nil {
		WriteSubmitError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, RunResponse{Job: job.ID, Key: job.Key, Status: job.Status()})
}

// DecodeRequest decodes a JSON request body into v, answering 413 for a body
// over MaxRequestBytes and 400 for malformed JSON or an unknown field: a
// field the wire form does not know — a misspelling, or one since retired —
// would otherwise be dropped and a different experiment run. It reports
// whether v was decoded; on false the error response is written.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		WriteError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
	default:
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// WriteSubmitError maps a refused submission onto its status code: 429 +
// Retry-After for load shedding, 503 + Retry-After while draining, and 400
// for anything else (an invalid config or manifest).
func WriteSubmitError(w http.ResponseWriter, err error) {
	var ov *OverloadError
	switch {
	case errors.As(err, &ov):
		w.Header().Set("Retry-After", strconv.Itoa(int(ov.RetryAfter/time.Second)))
		WriteError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		WriteError(w, http.StatusBadRequest, "%v", err)
	}
}

// lookupJob resolves ?job=ID, answering 404 for IDs this scheduler never
// issued and 410 for jobs that have aged out of the retention window — a
// client polling an evicted job deserves a different answer than one
// guessing handles.
func lookupJob(s *Scheduler, w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.URL.Query().Get("job")
	job, state := s.Lookup(id)
	switch state {
	case JobFound:
		return job, true
	case JobEvicted:
		WriteError(w, http.StatusGone, "job %q evicted from the retention window; re-submit the config (identical requests are answered from the store)", id)
	default:
		WriteError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return nil, false
}

// WriteError writes a JSON {"error": ...} body with the status code.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteJSON encodes v before writing any status, so an encoding failure
// becomes a 500 instead of a silently truncated 200, and write failures
// (client gone mid-response) are at least logged.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		data = []byte(`{"error": "encode response"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(append(data, '\n')); err != nil {
		log.Printf("service: write %d response: %v", code, err)
	}
}
