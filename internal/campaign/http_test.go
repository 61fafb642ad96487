package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/store"
)

func newCampaignServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := service.New(st, 0)
	m := NewManager(sched)
	srv := httptest.NewServer(service.NewHandler(sched, m.Routes()...))
	t.Cleanup(srv.Close)
	return srv, m
}

const smokeManifest = `{
  "name": "smoke",
  "base": {"cycles": 1, "p": 0.005, "seed": 3},
  "distances": [3],
  "policies": ["eraser", "nolrc"],
  "precision": {"target_ci_half_width": 0.01}
}`

func postManifest(t *testing.T, srv *httptest.Server, body string) SubmitResponse {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/campaign", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/campaign: %d %s", resp.StatusCode, buf.String())
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestCampaignHTTPSmoke is the end-to-end path the CI campaign job runs:
// submit a small adaptive manifest over HTTP, consume the ND-JSON stream to
// completion, and assert per-point half-widths never widen and every point
// ends converged; then cross-check the status summary and healthz counts.
func TestCampaignHTTPSmoke(t *testing.T) {
	srv, _ := newCampaignServer(t)

	sub := postManifest(t, srv, smokeManifest)
	if sub.Campaign == "" || len(sub.Points) != 2 {
		t.Fatalf("submit response: %+v", sub)
	}
	for _, pt := range sub.Points {
		if pt.Job == "" || pt.Key == "" {
			t.Fatalf("point %q missing job/key correlation IDs: %+v", pt.Point, pt)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/campaign/stream?id=" + sub.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}

	last := map[string]Event{}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events++
		if prev, ok := last[ev.Point]; ok && ev.HalfWidth > prev.HalfWidth {
			t.Fatalf("point %q half-width widened on stream: %g -> %g",
				ev.Point, prev.HalfWidth, ev.HalfWidth)
		}
		last[ev.Point] = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("stream carried no events")
	}
	if len(last) != 2 {
		t.Fatalf("stream covered %d points, want 2", len(last))
	}
	for pt, ev := range last {
		if ev.State != "done" || !ev.Converged {
			t.Fatalf("point %q did not stream to converged done: %+v", pt, ev)
		}
	}

	// Status summary agrees with the drained stream.
	var v View
	getJSON(t, srv, "/v1/campaign?id="+sub.Campaign, &v)
	if v.State != "done" || v.Done != 2 || v.Converged != 2 || v.Errors != 0 {
		t.Fatalf("status summary: %+v", v)
	}
	if v.Events < events {
		t.Fatalf("summary counts %d events, stream saw %d", v.Events, events)
	}

	// The campaign listing and healthz carry the campaign counts.
	var list []Summary
	getJSON(t, srv, "/v1/campaign", &list)
	if len(list) != 1 || list[0].State != "done" || list[0].Points != 2 {
		t.Fatalf("listing: %+v", list)
	}
	var health map[string]any
	getJSON(t, srv, "/v1/healthz", &health)
	camp, ok := health["campaigns"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no campaigns block: %v", health)
	}
	if camp["total"].(float64) != 1 || camp["points_done"].(float64) != 2 {
		t.Fatalf("healthz campaigns: %+v", camp)
	}
}

// TestCampaignStreamResume replays from a mid-stream cursor.
func TestCampaignStreamResume(t *testing.T) {
	srv, m := newCampaignServer(t)
	sub := postManifest(t, srv, smokeManifest)
	c, _ := m.Campaign(sub.Campaign)
	waitCampaign(t, c)

	all, _, _ := c.EventsSince(0)
	if len(all) < 2 {
		t.Fatalf("campaign emitted %d events, want >= 2", len(all))
	}
	from := all[len(all)/2].Seq
	resp, err := http.Get(srv.URL + "/v1/campaign/stream?id=" + sub.Campaign +
		"&from=" + strconv.Itoa(from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	want := from
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != want {
			t.Fatalf("resumed stream seq %d, want %d", ev.Seq, want)
		}
		want++
	}
	if want != all[len(all)-1].Seq+1 {
		t.Fatalf("resumed stream ended at seq %d, want %d", want-1, all[len(all)-1].Seq)
	}
}

func TestCampaignHTTPErrors(t *testing.T) {
	srv, _ := newCampaignServer(t)
	for _, tc := range []struct {
		method, path, body string
		want               int
		names              string // the error must name it, when set
	}{
		{"GET", "/v1/campaign?id=c99", "", http.StatusNotFound, ""},
		{"GET", "/v1/campaign/stream?id=c99", "", http.StatusNotFound, ""},
		{"POST", "/v1/campaign", "{not json", http.StatusBadRequest, ""},
		{"POST", "/v1/campaign", `{"base":{}}`, http.StatusBadRequest, ""},
		{"DELETE", "/v1/campaign", "", http.StatusMethodNotAllowed, ""},
		// Unknown fields are refused, not dropped, wherever they sit: a
		// retired knob in a point's config, a misspelling in the base.
		{"POST", "/v1/campaign", `{"base":{"distance":3,"cycles":1,"p":0.002,"shots":64,"policy":"eraser"},
			"points":[{"config":{"distance":3,"cycles":1,"p":0.002,"shots":64,"policy":"always","use_union_find":true}}]}`,
			http.StatusBadRequest, "use_union_find"},
		{"POST", "/v1/campaign", `{"base":{"distance":3,"cycles":1,"p":0.002,"shots":64,"policy":"eraser","no_leakge":true}}`,
			http.StatusBadRequest, "no_leakge"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: %d, want %d: %s", tc.method, tc.path, resp.StatusCode, tc.want, msg)
		} else if !strings.Contains(string(msg), tc.names) {
			t.Errorf("%s %s: error does not name %q: %s", tc.method, tc.path, tc.names, msg)
		}
	}
}

// TestCampaignStreamResumeAfterFinish replays a finished campaign's full log
// (the "watch it again" path leakwatch uses with -id).
func TestCampaignStreamResumeAfterFinish(t *testing.T) {
	srv, m := newCampaignServer(t)
	sub := postManifest(t, srv, smokeManifest)
	c, _ := m.Campaign(sub.Campaign)
	waitCampaign(t, c)

	resp, err := http.Get(srv.URL + "/v1/campaign/stream?id=" + sub.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		n++
	}
	all, _, _ := c.EventsSince(0)
	if n != len(all) {
		t.Fatalf("replay streamed %d events, campaign logged %d", n, len(all))
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
