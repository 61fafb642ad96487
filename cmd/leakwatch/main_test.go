package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/store"
)

func TestRenderFrame(t *testing.T) {
	f := frame{
		Campaign: "c1",
		Elapsed:  1200 * time.Millisecond,
		Events:   7,
		Points: []campaign.Event{
			{Point: "d=3/eraser/p=0.002", State: "running", Shots: 256,
				HalfWidth: 0.021, Target: 0.01, ETASeconds: 2.5},
			{Point: "d=5/eraser/p=0.002", State: "done", Shots: 512,
				WarmShots: 512, HalfWidth: 0.009, Target: 0.01,
				Converged: true, Cached: true},
		},
	}
	out := renderFrame(f)
	for _, want := range []string{
		"campaign c1", "7 events",
		"d=3/eraser/p=0.002", "d=5/eraser/p=0.002",
		"cached", "2.5s", "100%",
		"1/2 points running, 1 converged",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}

func TestCompactLine(t *testing.T) {
	f := frame{
		Campaign: "c2",
		Elapsed:  3 * time.Second,
		Finished: true,
		Points: []campaign.Event{
			{Point: "a", State: "done", Converged: true, HalfWidth: 0.004},
			{Point: "b", State: "done", Converged: true, HalfWidth: 0.008},
		},
	}
	line := compactLine(f)
	for _, want := range []string{"c2", "2/2 done", "2 converged", "8.00e-03", "[done]"} {
		if !strings.Contains(line, want) {
			t.Errorf("compact line missing %q: %s", want, line)
		}
	}
}

func TestRenderPointStates(t *testing.T) {
	for _, tc := range []struct {
		ev   campaign.Event
		want string
	}{
		{campaign.Event{Point: "p", State: "done", Converged: true}, "done ✓"},
		{campaign.Event{Point: "p", State: "done", Cached: true}, "cached"},
		{campaign.Event{Point: "p", State: "error"}, "error"},
		{campaign.Event{Point: "p", State: "running", Shots: 100, WarmShots: 25}, "25%"},
	} {
		if row := renderPoint(tc.ev); !strings.Contains(row, tc.want) {
			t.Errorf("row for %+v missing %q: %s", tc.ev, tc.want, row)
		}
	}
}

// TestRunEndToEnd drives the real flow against an in-process server: submit a
// manifest file, watch it to completion in -no-ansi mode, and check the final
// output reports convergence and the metrics footer.
func TestRunEndToEnd(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := service.New(st, 0)
	mgr := campaign.NewManager(sched)
	srv := httptest.NewServer(service.NewHandler(sched, mgr.Routes()...))
	defer srv.Close()

	manifest := filepath.Join(t.TempDir(), "man.json")
	body := `{
	  "name": "watchtest",
	  "base": {"cycles": 1, "p": 0.005, "seed": 3},
	  "distances": [3],
	  "policies": ["eraser", "nolrc"],
	  "precision": {"target_ci_half_width": 0.01}
	}`
	if err := os.WriteFile(manifest, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run(srv.URL, manifest, "", 20*time.Millisecond, true, true, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"campaign c1 (2 points)", "job=", "key=",
		"2/2 done", "2 converged", "[done]",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	// Attach mode replays the finished campaign.
	out.Reset()
	if err := run(srv.URL, "", "c1", 20*time.Millisecond, true, false, &out); err != nil {
		t.Fatalf("attach run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2/2 done") {
		t.Errorf("attach output missing final state:\n%s", out.String())
	}

	if err := run(srv.URL, manifest, "c1", time.Second, true, false, &out); err == nil {
		t.Fatal("-manifest with -id not rejected")
	}
	if err := run(srv.URL, "", "", time.Second, true, false, &out); err == nil {
		t.Fatal("missing -manifest and -id not rejected")
	}
}
