package campaign

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/store"
)

// newTestManager returns a manager over a fresh ephemeral store, plus the
// store for direct tally inspection.
func newTestManager(t *testing.T) (*Manager, *store.Store) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := service.New(st, 0)
	return NewManager(sched), st
}

// scrape parses the manager's registry as a /metrics scrape would see it.
func scrape(t *testing.T, m *Manager) *metrics.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Scheduler().Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func waitCampaign(t *testing.T, c *Campaign) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("campaign %s did not finish", c.ID)
	}
}

// finalEvents returns the last emitted event per point label.
func finalEvents(t *testing.T, c *Campaign) map[string]Event {
	t.Helper()
	evs, _, finished := c.EventsSince(0)
	if !finished {
		t.Fatal("campaign not finished")
	}
	out := make(map[string]Event)
	for _, ev := range evs {
		out[ev.Point] = ev
	}
	return out
}

func testFigure14Manifest() Manifest {
	// Small but real: 2 distances x 4 policies, fixed 192-shot points (3
	// 64-lane units — deliberately not block-aligned).
	return Figure14Manifest([]int{3, 5}, 2e-3,
		service.ConfigSpec{Cycles: 1, Shots: 192, Seed: 11}, service.Precision{})
}

// TestCampaignBitExactVsIndividualJobs pins the core contract: a Figure-14
// manifest run as one campaign leaves per-point store tallies DeepEqual to the
// same configs submitted one by one against a separate scheduler and store.
func TestCampaignBitExactVsIndividualJobs(t *testing.T) {
	man := testFigure14Manifest()

	m, stCampaign := newTestManager(t)
	c, err := m.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, c)

	// The same points, submitted individually the way a /v1/run client would.
	stSolo, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	solo := service.New(stSolo, 0)
	pts, err := man.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*service.Job
	for _, pt := range pts {
		job, err := solo.Submit(pt.Config, pt.Prec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		select {
		case <-job.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("solo job %s did not finish", job.ID)
		}
	}

	for _, pt := range pts {
		a, b := stCampaign.Get(pt.Key), stSolo.Get(pt.Key)
		if a == nil || b == nil {
			t.Fatalf("point %q: missing tally (campaign=%v solo=%v)", pt.Label, a != nil, b != nil)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("point %q: campaign tally differs from individual submission:\n%+v\nvs\n%+v",
				pt.Label, a, b)
		}
	}

	v := c.Status()
	if v.State != "done" || v.Done != len(pts) || v.Errors != 0 {
		t.Fatalf("status after completion: %+v", v)
	}
	if v.Converged != len(pts) {
		t.Fatalf("fixed-count points not all converged: %d/%d", v.Converged, len(pts))
	}
}

// TestCampaignWarmResubmit pins the cache contract: re-submitting a finished
// manifest streams every point straight to done with zero cold units — all
// shots come out of the store.
func TestCampaignWarmResubmit(t *testing.T) {
	man := testFigure14Manifest()
	m, _ := newTestManager(t)

	cold, err := m.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, cold)
	coldUnits := m.Scheduler().UnitsExecuted()

	warm, err := m.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, warm)
	if n := m.Scheduler().UnitsExecuted() - coldUnits; n != 0 {
		t.Fatalf("warm re-submit executed %d units", n)
	}

	finals := finalEvents(t, warm)
	pts, _ := man.Expand()
	for _, pt := range pts {
		ev, ok := finals[pt.Label]
		if !ok {
			t.Fatalf("point %q emitted no events", pt.Label)
		}
		if ev.State != "done" || !ev.Cached || ev.ColdUnits != 0 {
			t.Fatalf("point %q final event not a pure cache hit: %+v", pt.Label, ev)
		}
		if ev.WarmShots != ev.Shots || ev.Shots < 192 {
			t.Fatalf("point %q warm accounting wrong: shots=%d warm=%d", pt.Label, ev.Shots, ev.WarmShots)
		}
	}
	v := warm.Status()
	if v.Cached != len(pts) {
		t.Fatalf("status reports %d cached points, want %d", v.Cached, len(pts))
	}
}

// TestCampaignAdaptiveEventsMonotone runs an adaptive campaign and checks the
// streamed per-point half-width trajectories never widen and end converged —
// the property the CI campaign smoke gates on.
func TestCampaignAdaptiveEventsMonotone(t *testing.T) {
	man := Manifest{
		Name:      "adaptive",
		Base:      service.ConfigSpec{Cycles: 1, P: 5e-3, Seed: 3},
		Distances: []int{3},
		Policies:  []string{"eraser", "nolrc"},
		Precision: service.Precision{TargetCIHalfWidth: 0.01},
	}
	m, _ := newTestManager(t)
	c, err := m.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, c)

	evs, _, _ := c.EventsSince(0)
	last := map[string]Event{}
	samples := map[string]int{}
	for _, ev := range evs {
		if prev, ok := last[ev.Point]; ok {
			if ev.HalfWidth > prev.HalfWidth {
				t.Fatalf("point %q half-width widened: %g -> %g (seq %d)",
					ev.Point, prev.HalfWidth, ev.HalfWidth, ev.Seq)
			}
			if ev.Shots < prev.Shots {
				t.Fatalf("point %q shots went backwards: %d -> %d", ev.Point, prev.Shots, ev.Shots)
			}
		}
		last[ev.Point] = ev
		samples[ev.Point]++
	}
	if len(last) != 2 {
		t.Fatalf("events cover %d points, want 2", len(last))
	}
	for pt, ev := range last {
		if ev.State != "done" || !ev.Converged {
			t.Fatalf("point %q did not end converged: %+v", pt, ev)
		}
		if ev.HalfWidth > 0.01 {
			t.Fatalf("point %q final half-width %g over target", pt, ev.HalfWidth)
		}
		if samples[pt] == 0 {
			t.Fatalf("point %q emitted no events", pt)
		}
	}
}

// TestCampaignMetricsAndHealth checks the campaign metric inventory and the
// healthz contribution against a finished campaign.
func TestCampaignMetricsAndHealth(t *testing.T) {
	man := testFigure14Manifest()
	m, _ := newTestManager(t)
	for i := 0; i < 2; i++ { // second pass is fully cached
		c, err := m.Submit(man)
		if err != nil {
			t.Fatal(err)
		}
		waitCampaign(t, c)
	}

	snap := scrape(t, m)
	pts, _ := man.Expand()
	n := float64(len(pts))
	for _, tc := range []struct {
		state string
		want  float64
	}{
		{"submitted", 2 * n}, {"done", 2 * n}, {"cached", n}, {"error", 0},
	} {
		got, ok := snap.Value("leak_campaign_points_total", "state", tc.state)
		if !ok || got != tc.want {
			t.Fatalf("leak_campaign_points_total{state=%q} = %v (ok=%v), want %v",
				tc.state, got, ok, tc.want)
		}
	}
	if v, ok := snap.Value("leak_campaigns_active"); !ok || v != 0 {
		t.Fatalf("leak_campaigns_active = %v (ok=%v), want 0", v, ok)
	}
	// The registry cannot drop a series, so none is per campaign: GET
	// /v1/campaign?id= serves the per-point telemetry.
	for _, sm := range snap.Samples {
		if _, ok := sm.Labels["campaign"]; ok {
			t.Fatalf("series %s%v carries a campaign label", sm.Name, sm.Labels)
		}
	}

	health := m.healthCounts()
	if health["total"] != 2 || health["active"] != 0 {
		t.Fatalf("health counts: %+v", health)
	}
	if health["points_done"] != 2*len(pts) {
		t.Fatalf("health points_done = %v, want %d", health["points_done"], 2*len(pts))
	}
}

// TestCampaignRetention evicts the oldest finished campaigns past the cap,
// leaving nothing behind that names them: no listing slot, no metric series.
func TestCampaignRetention(t *testing.T) {
	m, _ := newTestManager(t)
	m.retain = 2
	man := Manifest{
		Base:      service.ConfigSpec{Distance: 3, Cycles: 1, P: 2e-3, Shots: 64, Policy: "eraser"},
		Precision: service.Precision{},
	}
	var ids []string
	for i := 0; i < 3; i++ {
		man.Base.Seed = uint64(i + 1)
		c, err := m.Submit(man)
		if err != nil {
			t.Fatal(err)
		}
		waitCampaign(t, c)
		ids = append(ids, c.ID)
	}
	if _, ok := m.Campaign(ids[0]); ok {
		t.Fatalf("campaign %s not evicted past retention cap", ids[0])
	}
	if _, ok := m.Campaign(ids[2]); !ok {
		t.Fatalf("campaign %s evicted while within cap", ids[2])
	}
	if got := len(m.List()); got != 2 {
		t.Fatalf("listing has %d rows, want 2", got)
	}
	m.mu.Lock()
	order := len(m.order)
	m.mu.Unlock()
	if order != 2 {
		t.Fatalf("listing order holds %d IDs, want 2", order)
	}
	for _, sm := range scrape(t, m).Samples {
		if sm.Labels["campaign"] == ids[0] {
			t.Fatalf("evicted campaign %s still has series %s%v", ids[0], sm.Name, sm.Labels)
		}
	}
}
