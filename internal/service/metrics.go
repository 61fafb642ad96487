package service

import (
	"runtime/debug"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
)

// Histogram bucket layouts. Rationale (also documented in DESIGN.md):
//
//   - Job end-to-end latency spans warm cache hits (sub-millisecond) to
//     adaptive points grinding to a tight CI (minutes), so the buckets run
//     0.5 ms → ~4 min with factor-2 growth — warm and cold traffic land in
//     clearly separated buckets and p99 stays resolvable at both ends.
//   - Per-chunk stage times (sim, decode) are bounded below by one unit
//     (~tens of µs at small distance) and above by a full chunk on a loaded
//     pool; 10 µs → ~40 s with factor-4 growth covers that in 12 buckets.
//   - HTTP request latency is dominated by handler work, not payload size;
//     0.1 ms → ~25 s with factor-2.5 growth brackets everything from a
//     healthz probe to a /v1/stream that lasts as long as its job.
var (
	jobLatencyBuckets   = metrics.ExpBuckets(5e-4, 2, 19)
	stageSecondsBuckets = metrics.ExpBuckets(1e-5, 4, 12)
	httpSecondsBuckets  = metrics.ExpBuckets(1e-4, 2.5, 13)
)

// instruments bundles every metric the scheduler updates on its hot paths as
// direct pointers — no registry lookups, no allocation after construction.
type instruments struct {
	reg *metrics.Registry

	jobSeconds    *metrics.Histogram
	simSeconds    *metrics.Histogram
	decodeSeconds *metrics.Histogram
	mergeSeconds  *metrics.Histogram

	jobsDone   *metrics.Counter
	jobsError  *metrics.Counter
	jobsCached *metrics.Counter

	sheds           *metrics.Counter
	chunkReissues   *metrics.Counter
	storeRetryRead  *metrics.Counter
	storeRetryWrite *metrics.Counter
}

// newInstruments registers the scheduler's whole metric inventory on reg:
// direct-pointer instruments for the hot paths plus scrape-time callbacks
// bridging subsystems that keep their own atomic counters (the store's
// hit/miss/corruption/byte counters, the chaos injector's per-kind fault
// counts, the scheduler's unit total and queue gauges).
func newInstruments(reg *metrics.Registry, s *Scheduler) *instruments {
	ins := &instruments{
		reg: reg,

		jobSeconds: reg.Histogram("leak_sched_job_seconds",
			"end-to-end job latency from admission to completion", jobLatencyBuckets),
		simSeconds: reg.Histogram("leak_sched_stage_seconds",
			"per-chunk worker time by pipeline stage", stageSecondsBuckets, "stage", "sim"),
		decodeSeconds: reg.Histogram("leak_sched_stage_seconds",
			"per-chunk worker time by pipeline stage", stageSecondsBuckets, "stage", "decode"),
		mergeSeconds: reg.Histogram("leak_sched_stage_seconds",
			"per-chunk worker time by pipeline stage", stageSecondsBuckets, "stage", "store_merge"),

		jobsDone: reg.Counter("leak_sched_jobs_total",
			"completed jobs by outcome", "outcome", "done"),
		jobsError: reg.Counter("leak_sched_jobs_total",
			"completed jobs by outcome", "outcome", "error"),
		jobsCached: reg.Counter("leak_sched_jobs_total",
			"completed jobs by outcome", "outcome", "cached"),

		sheds: reg.Counter("leak_sched_sheds_total",
			"cold submissions refused by admission control (HTTP 429)"),
		chunkReissues: reg.Counter("leak_sched_chunk_reissues_total",
			"unit chunks re-issued after a crashed, failed or cancelled attempt"),
		storeRetryRead: reg.Counter("leak_sched_store_retries_total",
			"store operations retried after a transient failure", "op", "read"),
		storeRetryWrite: reg.Counter("leak_sched_store_retries_total",
			"store operations retried after a transient failure", "op", "write"),
	}

	// Scheduler-owned totals and gauges, read at scrape time.
	reg.CounterFunc("leak_sched_units_total",
		"simulation units executed (64 lanes each); rate() of this is units/sec",
		func() int64 { return s.units.Load() })
	// Companion series splitting the unit total by how each unit ran. The
	// unlabeled total above stays the source of truth (its contract — equal
	// to UnitsExecuted — is asserted in tests); these let a dashboard watch
	// the whole-block occupancy ratio.
	reg.CounterFunc("leak_sched_units_by_width_total",
		"simulation units executed, by how they ran: width 256 in a whole 4-unit block, 64 in a partial block",
		func() int64 { return s.wideUnits.Load() }, "width", "256")
	reg.CounterFunc("leak_sched_units_by_width_total",
		"simulation units executed, by how they ran: width 256 in a whole 4-unit block, 64 in a partial block",
		func() int64 { return s.narrowUnits.Load() }, "width", "64")
	reg.GaugeFunc("leak_sched_queue_depth",
		"admitted cold jobs not yet finished",
		func() float64 { return float64(s.Pending()) })
	reg.GaugeFunc("leak_sched_inflight_jobs",
		"deduplicated jobs currently executing or queued",
		func() float64 { return float64(s.Inflight()) })
	reg.GaugeFunc("leak_sched_workers",
		"worker-pool width (runner workers)",
		func() float64 { return float64(s.opts.Workers) })
	reg.GaugeFunc("leak_uptime_seconds",
		"seconds since the scheduler was constructed",
		func() float64 { return time.Since(s.start).Seconds() })
	// Trace-ring evictions were previously visible only inside each job's
	// TraceView; the scheduler-wide total tells an operator that span history
	// is being truncated without reading every trace.
	reg.CounterFunc("leak_trace_drops_total",
		"span events evicted from per-job bounded trace rings",
		func() int64 { return s.traceDrops.Load() })

	// Store counters: the store keeps plain atomics (it must not depend on
	// the metrics package); the registry reads a snapshot per scrape.
	storeCtr := func(name, help string, get func() int64, labels ...string) {
		reg.CounterFunc(name, help, get, labels...)
	}
	st := s.store
	storeCtr("leak_store_lookups_total", "store lookups by result",
		func() int64 { return st.Counters().Hits }, "result", "hit")
	storeCtr("leak_store_lookups_total", "store lookups by result",
		func() int64 { return st.Counters().Misses }, "result", "miss")
	storeCtr("leak_store_corruptions_total", "corrupt persisted entries by lifecycle event",
		func() int64 { return st.Counters().CorruptionsDetected }, "event", "detected")
	storeCtr("leak_store_corruptions_total", "corrupt persisted entries by lifecycle event",
		func() int64 { return st.Counters().CorruptionsRepaired }, "event", "repaired")
	storeCtr("leak_store_io_errors_total", "transient store I/O failures surfaced to the scheduler",
		func() int64 { return st.Counters().ReadErrors }, "op", "read")
	storeCtr("leak_store_io_errors_total", "transient store I/O failures surfaced to the scheduler",
		func() int64 { return st.Counters().WriteErrors }, "op", "write")
	storeCtr("leak_store_bytes_total", "entry payload bytes moved through disk",
		func() int64 { return st.Counters().BytesRead }, "dir", "read")
	storeCtr("leak_store_bytes_total", "entry payload bytes moved through disk",
		func() int64 { return st.Counters().BytesWritten }, "dir", "written")
	storeCtr("leak_store_merges_total", "successful tally merge commits",
		func() int64 { return st.Counters().Merges })

	// Chaos injector faults by kind, read through loadFaults so the series
	// track whichever injector is installed (and read 0 with none — the
	// production configuration).
	chaosCtr := func(kind string, get func(chaos.Stats) int64) {
		reg.CounterFunc("leak_chaos_faults_total", "injected faults by kind (0 unless a chaos injector is installed)",
			func() int64 {
				if sp, ok := s.loadFaults().(chaosStats); ok {
					return get(sp.Stats())
				}
				return 0
			}, "kind", kind)
	}
	chaosCtr("read_err", func(st chaos.Stats) int64 { return st.ReadErrs })
	chaosCtr("write_err", func(st chaos.Stats) int64 { return st.WriteErrs })
	chaosCtr("torn_write", func(st chaos.Stats) int64 { return st.TornWrites })
	chaosCtr("panic", func(st chaos.Stats) int64 { return st.Panics })
	chaosCtr("delay", func(st chaos.Stats) int64 { return st.Delays })

	// Build identity as the conventional constant-1 info gauge.
	bi := BuildInfo()
	reg.GaugeFunc("leak_build_info", "build identity (constant 1)",
		func() float64 { return 1 },
		"go_version", bi.GoVersion, "revision", bi.Revision, "modified", bi.Modified)

	return ins
}

// chaosStats is the optional interface a ChunkFaultInjector may implement
// (chaos.Injector does) to surface per-kind fault counts on /metrics.
type chaosStats interface {
	Stats() chaos.Stats
}

// Build describes the running binary for /v1/healthz and leak_build_info.
type Build struct {
	GoVersion string `json:"go_version"`
	Main      string `json:"main,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Modified  string `json:"modified,omitempty"`
}

// BuildInfo reads the binary's embedded build metadata; fields the build did
// not record stay empty.
func BuildInfo() Build {
	b := Build{}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.GoVersion = info.GoVersion
	b.Main = info.Main.Path
	b.Version = info.Main.Version
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Modified = s.Value
		}
	}
	return b
}
