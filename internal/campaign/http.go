package campaign

import (
	"encoding/json"
	"net/http"
	"strconv"

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
			service.WriteJSON(w, http.StatusOK, m.List())
			return
		}
		c, ok := m.Campaign(id)
		if !ok {
			service.WriteError(w, http.StatusNotFound, "unknown campaign %q", id)
			return
		}
		service.WriteJSON(w, http.StatusOK, c.Status())
	default:
		service.WriteError(w, http.StatusMethodNotAllowed, "POST or GET only")
	}
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var man Manifest
	if !service.DecodeRequest(w, r, &man) {
		return
	}
	c, err := m.Submit(man)
	if err != nil {
		service.WriteSubmitError(w, err)
		return
	}
	resp := SubmitResponse{Campaign: c.ID, Name: c.Name, Precision: man.Precision}
	for i, pt := range c.Points() {
		resp.Points = append(resp.Points, SubmittedPoint{
			Point: pt.Label, Job: c.Jobs()[i].ID, Key: pt.Key})
	}
	service.WriteJSON(w, http.StatusAccepted, resp)
}

// handleStream serves the ND-JSON campaign event stream: every retained
// event from ?from= (default 0) onward, then live events as the monitor
// emits them, closing once the campaign finishes and the log is drained. A
// disconnected client stops the loop at the next wakeup.
func (m *Manager) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	c, ok := m.Campaign(id)
	if !ok {
		service.WriteError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	cursor := 0
	if from := r.URL.Query().Get("from"); from != "" {
		n, err := strconv.Atoi(from)
		if err != nil || n < 0 {
			service.WriteError(w, http.StatusBadRequest, "bad from=%q", from)
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
