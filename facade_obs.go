package sfcmem

import (
	"sfcmem/internal/metrics"
	"sfcmem/internal/parallel"
	"sfcmem/internal/timeline"
)

// Observability facade: the runtime instrumentation layer. Metrics and
// timelines are opt-in — the kernels pay nothing when no observer is
// attached (see DESIGN.md "Observability").

// Metrics types: lock-free per-worker counters, log-scaled latency
// histograms with quantile export, named phase timers, and a registry
// that snapshots everything to JSON (or publishes it via expvar).
type (
	MetricsRegistry = metrics.Registry
	MetricsCounter  = metrics.Counter
	Histogram       = metrics.Histogram
	PhaseTimer      = metrics.PhaseTimer
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// TimelineRecorder collects per-worker spans and exports them as Chrome
// trace_event JSON (chrome://tracing, Perfetto).
type TimelineRecorder = timeline.Recorder

// NewTimelineRecorder returns an empty timeline recorder.
func NewTimelineRecorder() *TimelineRecorder { return timeline.NewRecorder() }

// Scheduling instrumentation: the paper's two work-distribution
// strategies (round-robin pencils, dynamic-queue tiles) in variants that
// report per-worker item counts, busy time, and the load-imbalance
// factor (max/mean busy time).
type (
	// WorkObserver is called after each completed work item.
	WorkObserver = parallel.Observer
	// SchedulerStats aggregates one parallel run's per-worker behaviour.
	SchedulerStats = parallel.Stats
	// WorkerStat is one worker's item count and busy time.
	WorkerStat = parallel.WorkerStat
)

// RoundRobinInstrumented statically deals items to workers in
// round-robin order, reporting per-worker stats; obs (optional) sees
// each completed item.
func RoundRobinInstrumented(items, workers int, fn func(worker, item int), obs WorkObserver) SchedulerStats {
	return parallel.RoundRobinInstrumented(items, workers, fn, obs)
}

// DynamicInstrumented hands items to workers from a shared atomic queue,
// reporting per-worker stats; obs (optional) sees each completed item.
func DynamicInstrumented(items, workers int, fn func(worker, item int), obs WorkObserver) SchedulerStats {
	return parallel.DynamicInstrumented(items, workers, fn, obs)
}
