package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/service"
)

// SubmitResponse acknowledges a submitted campaign: the handle plus one row
// per point mapping its label to the scheduler job and content key — the
// identifiers every other observability surface (stream, traces, logs,
// metrics) is keyed by.
type SubmitResponse struct {
	Campaign  string            `json:"campaign"`
	Name      string            `json:"name,omitempty"`
	Points    []SubmittedPoint  `json:"points"`
	Precision service.Precision `json:"precision"`
}

// SubmittedPoint maps one manifest point to its job.
type SubmittedPoint struct {
	Point string `json:"point"`
	Job   string `json:"job"`
	Key   string `json:"key"`
}

// Routes returns the campaign endpoints for service.NewHandler's extra-route
// hook, so they ride the same per-route metrics middleware as the built-in
// API:
//
//	POST /v1/campaign         submit a manifest; 202 + campaign handle and
//	                          per-point job IDs, 429/503 passed through from
//	                          scheduler admission
//	GET  /v1/campaign         ?id=ID — status summary (latest telemetry per
//	                          point, convergence counts, campaign ETA);
//	                          without id, a listing of retained campaigns
//	GET  /v1/campaign/stream  ?id=ID[&from=SEQ] — ND-JSON stream multiplexing
//	                          per-point progress events until the campaign
//	                          finishes
func (m *Manager) Routes() []service.Route {
	return []service.Route{
		{Pattern: "/v1/campaign", Handler: http.HandlerFunc(m.handleCampaign)},
		{Pattern: "/v1/campaign/stream", Handler: http.HandlerFunc(m.handleStream)},
	}
}

func (m *Manager) handleCampaign(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		m.handleSubmit(w, r)
	case http.MethodGet:
		id := r.URL.Query().Get("id")
		if id == "" {
			writeJSON(w, http.StatusOK, m.List())
			return
		}
		c, ok := m.Campaign(id)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown campaign %q", id)
			return
		}
		writeJSON(w, http.StatusOK, c.Status())
	default:
		writeError(w, http.StatusMethodNotAllowed, "POST or GET only")
	}
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, service.MaxRequestBytes)
	var man Manifest
	dec := json.NewDecoder(r.Body)
	// Unknown fields fail the request rather than silently changing a point.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"manifest over %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad manifest body: %v", err)
		return
	}
	c, err := m.Submit(man)
	if err != nil {
		var ov *service.OverloadError
		switch {
		case errors.As(err, &ov):
			w.Header().Set("Retry-After", strconv.Itoa(int(ov.RetryAfter/time.Second)))
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, service.ErrDraining):
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	resp := SubmitResponse{Campaign: c.ID, Name: c.Name, Precision: man.Precision}
	for i, pt := range c.Points() {
		resp.Points = append(resp.Points, SubmittedPoint{
			Point: pt.Label, Job: c.Jobs()[i].ID, Key: pt.Key})
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// handleStream serves the ND-JSON campaign event stream: every retained
// event from ?from= (default 0) onward, then live events as the monitor
// emits them, closing once the campaign finishes and the log is drained. A
// disconnected client stops the loop at the next wakeup.
func (m *Manager) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	c, ok := m.Campaign(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	cursor := 0
	if from := r.URL.Query().Get("from"); from != "" {
		n, err := strconv.Atoi(from)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from=%q", from)
			return
		}
		cursor = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ctx := r.Context()
	for {
		evs, wake, finished := c.EventsSince(cursor)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
			cursor = ev.Seq + 1
		}
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if finished && len(evs) == 0 {
			return
		}
		select {
		case <-wake:
		case <-c.Done():
			// Final drain on the next loop; EventsSince then reports finished.
		case <-ctx.Done():
			return
		}
		if ctx.Err() != nil {
			return
		}
	}
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON mirrors the service's response discipline: encode before writing
// any status so a marshalling failure becomes a 500, not a truncated 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		data = []byte(`{"error": "encode response"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(append(data, '\n')); err != nil {
		log.Printf("campaign: write %d response: %v", code, err)
	}
}
