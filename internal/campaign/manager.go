package campaign

import (
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
)

// Event is one per-point telemetry sample, the ND-JSON line the campaign
// stream multiplexes and the per-point entry in the status summary. Every
// event carries the campaign/point/job/key identifiers that also label the
// log records and, by job, the span traces.
type Event struct {
	Campaign string `json:"campaign"`
	Point    string `json:"point"`
	Job      string `json:"job,omitempty"`
	Key      string `json:"key,omitempty"`
	// Seq orders events campaign-wide; AtMS is milliseconds since submission.
	Seq  int     `json:"seq"`
	AtMS float64 `json:"t_ms"`
	// State is "running", "done" or "error".
	State string `json:"state"`
	// Shots/ColdUnits/WarmShots split the point's progress by provenance:
	// ColdUnits were simulated by this campaign's job, WarmShots came out of
	// the store (prior work the content key already covered).
	Shots     int `json:"shots"`
	ColdUnits int `json:"cold_units"`
	WarmShots int `json:"warm_shots,omitempty"`
	// LER and the Wilson 95% half-width around it; 0.5 before the first
	// tally lands (the zero-shot convention of Tally.HalfWidth).
	LER       float64 `json:"ler"`
	HalfWidth float64 `json:"half_width"`
	// Target is the adaptive half-width goal (0 in fixed-count mode);
	// Converged reports whether the point has met it (fixed-count points
	// converge by covering their shot budget).
	Target    float64 `json:"target,omitempty"`
	Converged bool    `json:"converged"`
	// ShotsToTarget and ETASeconds are the forward-looking estimates: the
	// half-width shrinks ∝ 1/√shots, so the shots still needed and — at the
	// point's observed simulation rate — the seconds they will take are
	// computable, not guessed. Both are 0 once converged or unestimable.
	ShotsToTarget int     `json:"shots_to_target,omitempty"`
	ETASeconds    float64 `json:"eta_seconds,omitempty"`
	// Cached marks a point whose job finished without simulating any unit.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// View is the GET /v1/campaign?id= status summary: the latest telemetry per
// point plus campaign-level rollups.
type View struct {
	Campaign       string    `json:"campaign"`
	Name           string    `json:"name,omitempty"`
	State          string    `json:"state"` // "running" or "done"
	Created        time.Time `json:"created"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	Points         []Event   `json:"points"`
	Running        int       `json:"running"`
	Done           int       `json:"done"`
	Errors         int       `json:"errors"`
	Cached         int       `json:"cached"`
	Converged      int       `json:"converged"`
	// ETASeconds is the campaign finish estimate: the max over its running
	// points (a figure is done when its slowest point is).
	ETASeconds float64 `json:"eta_seconds,omitempty"`
	// Events counts telemetry events emitted so far (the stream's length).
	Events int `json:"events"`
}

// Summary is one row of the GET /v1/campaign listing.
type Summary struct {
	Campaign string    `json:"campaign"`
	Name     string    `json:"name,omitempty"`
	State    string    `json:"state"`
	Points   int       `json:"points"`
	Created  time.Time `json:"created"`
}

// retainCampaigns caps finished campaigns kept queryable.
const retainCampaigns = 256

// eventsCap bounds one campaign's retained event log; a stream that falls
// behind a long campaign resumes from the oldest retained event.
const eventsCap = 8192

// Manager owns the campaign table: it expands manifests, submits their
// points through the scheduler as one batch, and runs one monitor per
// campaign that turns every job tally update into telemetry events, metric
// updates and log records.
type Manager struct {
	sched *service.Scheduler
	log   *slog.Logger
	// retain caps finished campaigns kept queryable: retainCampaigns, lowered
	// by in-package tests before the first Submit.
	retain int

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // submission order, for listings
	finished  []string // completion order, behind the retention cap
	nextID    int

	ptsSubmitted *metrics.Counter
	ptsDone      *metrics.Counter
	ptsError     *metrics.Counter
	ptsCached    *metrics.Counter
}

// NewManager returns a manager over the scheduler, registers the campaign
// metric inventory on the scheduler's registry, and contributes campaign
// counts to /v1/healthz.
func NewManager(s *service.Scheduler) *Manager {
	reg := s.Registry()
	m := &Manager{
		sched:     s,
		log:       s.Logger(),
		retain:    retainCampaigns,
		campaigns: make(map[string]*Campaign),

		ptsSubmitted: reg.Counter("leak_campaign_points_total",
			"campaign points by lifecycle state", "state", "submitted"),
		ptsDone: reg.Counter("leak_campaign_points_total",
			"campaign points by lifecycle state", "state", "done"),
		ptsError: reg.Counter("leak_campaign_points_total",
			"campaign points by lifecycle state", "state", "error"),
		ptsCached: reg.Counter("leak_campaign_points_total",
			"campaign points by lifecycle state", "state", "cached"),
	}
	reg.GaugeFunc("leak_campaigns_active",
		"campaigns with at least one unfinished point",
		func() float64 { return float64(m.active()) })
	s.RegisterHealth("campaigns", func() any { return m.healthCounts() })
	return m
}

// Scheduler returns the scheduler the manager submits through.
func (m *Manager) Scheduler() *service.Scheduler { return m.sched }

func (m *Manager) active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.campaigns {
		if !c.Finished() {
			n++
		}
	}
	return n
}

// healthCounts is the /v1/healthz "campaigns" contribution.
func (m *Manager) healthCounts() map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	active, pointsRunning, pointsDone := 0, 0, 0
	for _, c := range m.campaigns {
		running, done := c.pointCounts()
		pointsRunning += running
		pointsDone += done
		if running > 0 {
			active++
		}
	}
	return map[string]any{
		"total":          m.nextID,
		"active":         active,
		"points_running": pointsRunning,
		"points_done":    pointsDone,
	}
}

// Submit expands the manifest and submits every point through the scheduler
// as one batch. Submission is all-or-nothing at the manifest level: a point
// the scheduler refuses (overload, draining, invalid config) fails the whole
// campaign — points submitted before the failure keep running as ordinary
// jobs and their units land in the store, so a retried campaign is warmer,
// never wasted.
func (m *Manager) Submit(man Manifest) (*Campaign, error) {
	pts, err := man.Expand()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.nextID++
	id := fmt.Sprintf("c%d", m.nextID)
	m.mu.Unlock()

	c := &Campaign{
		ID:      id,
		Name:    man.Name,
		m:       m,
		created: time.Now(),
		done:    make(chan struct{}),
		notify:  make(chan struct{}),
	}
	for _, pt := range pts {
		job, err := m.sched.Submit(pt.Config, pt.Prec)
		if err != nil {
			return nil, fmt.Errorf("campaign %s: point %q: %w", id, pt.Label, err)
		}
		c.points = append(c.points, &point{Point: pt, job: job,
			unitShots: pt.Config.UnitShots(), state: "running"})
	}
	m.ptsSubmitted.Add(int64(len(c.points)))

	m.mu.Lock()
	m.campaigns[id] = c
	m.order = append(m.order, id)
	m.mu.Unlock()
	m.log.Info("campaign submitted", "campaign", id, "name", man.Name,
		"points", len(c.points))
	go c.monitor()
	return c, nil
}

// Campaign looks a campaign up by ID.
func (m *Manager) Campaign(id string) (*Campaign, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.campaigns[id]
	return c, ok
}

// List returns a summary row per retained campaign in submission order.
func (m *Manager) List() []Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Summary, 0, len(m.order))
	for _, id := range m.order {
		c, ok := m.campaigns[id]
		if !ok {
			continue
		}
		state := "running"
		if c.Finished() {
			state = "done"
		}
		out = append(out, Summary{Campaign: c.ID, Name: c.Name, State: state,
			Points: len(c.points), Created: c.created})
	}
	return out
}

// retire records a finished campaign and evicts the oldest finished ones
// beyond the retention cap, from the table and the listing order alike.
func (m *Manager) retire(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, id)
	for len(m.finished) > m.retain {
		old := m.finished[0]
		m.finished = m.finished[1:]
		delete(m.campaigns, old)
		m.order = slices.DeleteFunc(m.order, func(o string) bool { return o == old })
	}
}

// Campaign is one submitted manifest: its points, their jobs, and the
// telemetry event log the point watchers append to.
type Campaign struct {
	ID   string
	Name string

	m       *Manager
	created time.Time
	points  []*point
	// done closes when every point has finished.
	done chan struct{}

	mu     sync.Mutex
	events []Event
	// base is the Seq of events[0]: the bounded log drops oldest-first and
	// subscribers resume from the oldest retained event.
	base   int
	seq    int
	notify chan struct{} // closed and replaced on every append (broadcast)
}

// point carries one sweep point's job handle and telemetry state. Mutable
// fields are guarded by the campaign's mu: the point's watcher goroutine
// writes them, status views read them.
type point struct {
	Point
	job       *service.Job
	unitShots int

	state     string // "running", "done", "error"
	lastShots int
	sampled   bool // first observation emitted
	converged bool
	cached    bool
	last      Event // latest emitted event
	// firstAt/firstShots anchor the simulation-rate estimate: progress since
	// the first sample. That sample is taken at submission, so a point that
	// queues behind other work counts its wait in the rate.
	firstAt    time.Time
	firstShots int
}

// Done is closed when every point has finished (successfully or not) and
// the manager has retired the campaign into its retention window.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Finished reports whether every point has finished.
func (c *Campaign) Finished() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Points returns the expanded points in manifest order.
func (c *Campaign) Points() []Point {
	out := make([]Point, len(c.points))
	for i, p := range c.points {
		out[i] = p.Point
	}
	return out
}

// Jobs returns the scheduler job handle per point, in manifest order.
func (c *Campaign) Jobs() []*service.Job {
	out := make([]*service.Job, len(c.points))
	for i, p := range c.points {
		out[i] = p.job
	}
	return out
}

// monitor runs one watcher per point and, once every point has finished,
// retires the campaign and closes done.
func (c *Campaign) monitor() {
	var wg sync.WaitGroup
	for _, p := range c.points {
		wg.Add(1)
		go func(p *point) {
			defer wg.Done()
			c.watch(p)
		}(p)
	}
	wg.Wait()
	// Retire first: a waiter woken by done must already see the campaign
	// counted against the retention cap, and any eviction that caused.
	c.m.retire(c.ID)
	close(c.done)
	errs := 0
	for _, p := range c.points {
		if p.state == "error" {
			errs++
		}
	}
	c.m.log.Info("campaign done", "campaign", c.ID, "name", c.Name,
		"points", len(c.points), "errors", errs,
		"dur_ms", float64(time.Since(c.created))/float64(time.Millisecond))
}

// watch observes one point at submission and again on every tally update of
// its job until the job is done. It takes the job's signal before reading
// the status, so an update that lands in between wakes it again; updates
// that outpace it coalesce into one observation of the latest tally.
func (c *Campaign) watch(p *point) {
	for {
		changed := p.job.Changed()
		if !c.observe(p) {
			return
		}
		select {
		case <-changed:
		case <-p.job.Done():
		}
	}
}

// observe samples one point and reports whether it is still running. An
// event is emitted on the first sample, whenever the shot count moves, and
// on the terminal transition.
func (c *Campaign) observe(p *point) (stillRunning bool) {
	st := p.job.Status() // outside c.mu: Status takes the job's own locks

	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now() // under c.mu, so AtMS never decreases along Seq
	terminal := st.State != "running"
	if p.sampled && !terminal && st.Shots == p.lastShots {
		return true // no progress since the last event
	}
	if !p.sampled {
		p.sampled = true
		p.firstAt, p.firstShots = now, st.Shots
	}
	ev := c.telemetry(p, st, now)
	p.lastShots = st.Shots
	p.last = ev
	c.appendLocked(ev)
	if terminal {
		p.state = st.State
		p.converged = ev.Converged
		p.cached = st.Cached
		switch {
		case st.State == "error":
			c.m.ptsError.Inc()
			c.m.log.Warn("campaign point failed", "campaign", c.ID,
				"point", p.Label, "job", st.Job, "key", p.Key, "err", st.Error)
		case st.Cached:
			c.m.ptsCached.Inc()
			c.m.ptsDone.Inc()
		default:
			c.m.ptsDone.Inc()
		}
		if st.State != "error" {
			c.m.log.Info("campaign point done", "campaign", c.ID,
				"point", p.Label, "job", st.Job, "key", p.Key,
				"shots", st.Shots, "cold_units", st.UnitsExecuted,
				"half_width", ev.HalfWidth, "cached", st.Cached)
		}
		return false
	}
	return true
}

// telemetry derives one event from a job status snapshot. Callers hold c.mu.
func (c *Campaign) telemetry(p *point, st service.Status, now time.Time) Event {
	ev := Event{
		Campaign:  c.ID,
		Point:     p.Label,
		Job:       st.Job,
		Key:       p.Key,
		AtMS:      float64(now.Sub(c.created)) / float64(time.Millisecond),
		State:     st.State,
		Shots:     st.Shots,
		ColdUnits: st.UnitsExecuted,
		LER:       st.LER,
		HalfWidth: st.CIHalfWidth,
		Target:    p.Prec.TargetCIHalfWidth,
		Cached:    st.Cached,
		Error:     st.Error,
	}
	if st.Shots == 0 {
		// Tally.HalfWidth's zero-shot convention: the widest interval a rate
		// in [0,1] can have. Keeps the streamed trajectory monotone from the
		// first sample.
		ev.HalfWidth = 0.5
	}
	if warm := st.Shots - st.UnitsExecuted*p.unitShots; warm > 0 {
		ev.WarmShots = warm
	}
	ev.Converged, ev.ShotsToTarget = c.progress(p, st)
	if ev.State == "running" && !ev.Converged && ev.ShotsToTarget > 0 {
		// Rate from observed progress since the first sample; no progress
		// yet means no estimate, not a zero ETA.
		elapsed := now.Sub(p.firstAt).Seconds()
		if gained := st.Shots - p.firstShots; gained > 0 && elapsed > 0 {
			rate := float64(gained) / elapsed
			ev.ETASeconds = float64(ev.ShotsToTarget) / rate
		}
	}
	c.seq++
	ev.Seq = c.seq - 1
	return ev
}

// progress applies the point's stopping rule to the snapshot: whether it is
// already satisfied and, if not, how many more shots the 1/√n half-width
// model predicts it needs.
func (c *Campaign) progress(p *point, st service.Status) (converged bool, shotsToTarget int) {
	if p.Prec.Adaptive() {
		target := p.Prec.TargetCIHalfWidth
		minShots, maxShots := p.Prec.Bounds(p.unitShots)
		if st.Shots >= minShots && st.CIHalfWidth <= target {
			return true, 0
		}
		if st.Shots >= maxShots {
			// Budget-capped, not statistically converged.
			return st.CIHalfWidth <= target, 0
		}
		need := minShots - st.Shots
		if st.Shots > 0 && st.CIHalfWidth > target {
			// Wilson half-width ≈ z·√(p̂(1-p̂)/n): scale the current n by
			// (hw/target)² for the total the target needs.
			est := int(math.Ceil(float64(st.Shots) * (st.CIHalfWidth / target) * (st.CIHalfWidth / target)))
			if est-st.Shots > need {
				need = est - st.Shots
			}
		}
		if st.Shots+need > maxShots {
			need = maxShots - st.Shots
		}
		if need < 0 {
			need = 0
		}
		return false, need
	}
	// Fixed-count mode: converged when the shot budget is covered (whole
	// units, so the tally may round the budget up).
	budget := p.Config.NumUnits() * p.unitShots
	if st.Shots >= budget {
		return true, 0
	}
	return false, budget - st.Shots
}

// appendLocked adds one event to the bounded log and wakes every stream
// subscriber. Callers hold c.mu.
func (c *Campaign) appendLocked(ev Event) {
	if len(c.events) >= eventsCap {
		drop := len(c.events) - eventsCap + 1
		c.events = c.events[drop:]
		c.base += drop
	}
	c.events = append(c.events, ev)
	close(c.notify)
	c.notify = make(chan struct{})
}

// EventsSince returns the retained events with Seq >= cursor, the channel
// that closes on the next append, and whether the campaign has finished. A
// cursor older than the retained window resumes from the oldest event.
func (c *Campaign) EventsSince(cursor int) (evs []Event, wake <-chan struct{}, finished bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cursor < c.base {
		cursor = c.base
	}
	if i := cursor - c.base; i < len(c.events) {
		evs = append([]Event(nil), c.events[i:]...)
	}
	return evs, c.notify, c.Finished()
}

// pointCounts returns (running, done) point counts. Callers hold m.mu, not
// c.mu — take c.mu here.
func (c *Campaign) pointCounts() (running, done int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.points {
		if p.state == "running" {
			running++
		} else {
			done++
		}
	}
	return running, done
}

// Status assembles the campaign's status summary.
func (c *Campaign) Status() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := View{
		Campaign:       c.ID,
		Name:           c.Name,
		State:          "running",
		Created:        c.created,
		ElapsedSeconds: time.Since(c.created).Seconds(),
		Events:         c.seq,
	}
	eta := 0.0
	for _, p := range c.points {
		last := p.last
		if !p.sampled {
			// Not yet observed: synthesize the zero-progress row so the view
			// always lists every point.
			last = Event{Campaign: c.ID, Point: p.Label, Key: p.Key,
				State: "running", HalfWidth: 0.5, Target: p.Prec.TargetCIHalfWidth}
		}
		v.Points = append(v.Points, last)
		switch p.state {
		case "running":
			v.Running++
			if last.ETASeconds > eta {
				eta = last.ETASeconds
			}
		case "error":
			v.Errors++
		default:
			v.Done++
			if p.cached {
				v.Cached++
			}
		}
		if last.Converged {
			v.Converged++
		}
	}
	v.ETASeconds = eta
	if v.Running == 0 {
		v.State = "done"
	}
	return v
}
