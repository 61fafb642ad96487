package service

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// Span event kinds, in the order a healthy job emits them. A chunked job
// repeats the issue→sim→decode→merge group once per chunk; "retry" events
// interleave when a chunk or store operation fails and is re-attempted.
const (
	SpanAdmitted   = "admitted"     // job accepted (note: "warm" when the store already satisfied it)
	SpanStoreHit   = "store_hit"    // request answered from the store without issuing work
	SpanChunkIssue = "chunk_issued" // unit range locked and handed to the pool
	SpanSimStage   = "sim_stage"    // chunk's summed sim-worker time
	SpanDecode     = "decode_stage" // chunk's summed decode-worker time
	SpanStoreMerge = "store_merge"  // chunk delta merged + persisted
	SpanRetry      = "retry"        // chunk attempt failed; will re-issue after backoff
	SpanDone       = "done"         // job finished (note: error text on failure)
)

// SpanEvent is one entry in a job's bounded trace ring. Times are relative
// to job admission; durations are worker time for the stage spans (on a
// parallel chunk the stage duration can exceed wall clock) and wall time for
// store merges.
type SpanEvent struct {
	Seq     int     `json:"seq"`
	Kind    string  `json:"kind"`
	AtMS    float64 `json:"t_ms"`
	DurMS   float64 `json:"dur_ms,omitempty"`
	UnitLo  int     `json:"unit_lo,omitempty"`
	UnitHi  int     `json:"unit_hi,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// traceCap bounds the ring: long adaptive jobs keep their most recent spans
// (the interesting ones when debugging a stuck or slow job) and report how
// many older events were dropped. 512 events ≈ 120 chunks of history.
const traceCap = 512

// trace is a bounded, mutex-guarded ring of span events. Granularity is
// per-chunk (a few events per scheduling round), never per-shot, so tracing
// costs nothing measurable next to the simulation work it describes.
type trace struct {
	start time.Time
	// drops is the scheduler-wide eviction counter, leak_trace_drops_total:
	// per-job rings know how many of their own events fell off (seq - len),
	// but an operator watching /metrics needs one number that says "traces
	// are being truncated somewhere".
	drops *metrics.Counter

	mu      sync.Mutex
	events  []SpanEvent // ring storage, len <= traceCap
	head    int         // index of the oldest event once the ring is full
	seq     int         // total events ever added
	retries int
}

func newTrace(drops *metrics.Counter) *trace {
	return &trace{start: time.Now(), drops: drops}
}

// add appends one event, evicting the oldest when the ring is full.
func (t *trace) add(ev SpanEvent) {
	t.mu.Lock()
	ev.Seq = t.seq
	ev.AtMS = float64(time.Since(t.start)) / float64(time.Millisecond)
	t.seq++
	if ev.Kind == SpanRetry {
		t.retries++
	}
	if len(t.events) < traceCap {
		t.events = append(t.events, ev)
	} else {
		t.events[t.head] = ev
		t.head = (t.head + 1) % traceCap
		t.drops.Inc()
	}
	t.mu.Unlock()
}

// snapshot returns the retained events oldest-first plus how many older
// events the ring has dropped and the retry count.
func (t *trace) snapshot() (events []SpanEvent, dropped, retries int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	events = make([]SpanEvent, 0, len(t.events))
	events = append(events, t.events[t.head:]...)
	events = append(events, t.events[:t.head]...)
	return events, t.seq - len(t.events), t.retries
}

// counts returns (total events recorded, retries) without copying the ring —
// the cheap summary embedded in Status.
func (t *trace) counts() (seq, retries int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq, t.retries
}

// TraceView is the GET /v1/trace?job= payload: the job's retained span
// events with enough identity to correlate against /v1/result.
type TraceView struct {
	Job     string      `json:"job"`
	Key     string      `json:"key"`
	State   string      `json:"state"`
	Started time.Time   `json:"started"`
	Events  []SpanEvent `json:"events"`
	// Dropped counts older events evicted from the bounded ring.
	Dropped int `json:"dropped,omitempty"`
	Retries int `json:"retries,omitempty"`
}

// Trace snapshots the job's span-event ring.
func (j *Job) Trace() TraceView {
	events, dropped, retries := j.trace.snapshot()
	return TraceView{
		Job:     j.ID,
		Key:     j.Key,
		State:   j.Status().State,
		Started: j.trace.start,
		Events:  events,
		Dropped: dropped,
		Retries: retries,
	}
}
