package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"sfcmem/internal/timeline"
)

// ctxKey carries the request's *Trace through context.Context, across
// the service handler and the helpers it calls.
type ctxKey struct{}

// With returns ctx carrying t.
func With(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil. All Trace
// methods are nil-safe, so call sites can instrument unconditionally.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// DefaultRingSize is how many completed request traces the hub keeps
// for /ops/trace/recent.
const DefaultRingSize = 128

// Hub owns the request-observability state for one service: the
// completed-trace ring, the in-flight registry, and the structured
// access logger. A nil *Hub disables everything at the cost of a nil
// check per call — that is the -obs-off ablation.
type Hub struct {
	ring     *Ring
	inflight *Inflight
	log      *slog.Logger
	// SlowThreshold, when positive, dumps the full span tree of any
	// request slower than it as a second log record.
	SlowThreshold time.Duration
}

// NewHub returns a hub logging JSON lines to w (io.Discard silences the
// access log without disabling tracing).
func NewHub(w io.Writer, ringSize int) *Hub {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Hub{
		ring:     NewRing(ringSize),
		inflight: NewInflight(),
		log:      slog.New(slog.NewJSONHandler(w, nil)),
	}
}

// Logger exposes the hub's structured logger (for boot banners and
// other service-lifecycle records that should land in the same stream).
func (h *Hub) Logger() *slog.Logger {
	if h == nil {
		return slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	return h.log
}

// Ring exposes the completed-trace ring (nil-safe, for tests).
func (h *Hub) Ring() *Ring {
	if h == nil {
		return nil
	}
	return h.ring
}

// Start begins a trace for route: parses the inbound trace-context
// headers, registers the trace as in-flight, and returns it with a
// derived context. On a nil hub it returns (nil, ctx) — the whole
// instrumentation layer then short-circuits on nil-trace checks.
func (h *Hub) Start(ctx context.Context, route string, hdr http.Header) (*Trace, context.Context) {
	if h == nil {
		return nil, ctx
	}
	t := NewTrace(route, hdr.Get("traceparent"), hdr.Get("X-Request-Id"))
	h.inflight.Add(t)
	return t, With(ctx, t)
}

// Finish seals the trace, moves it from the in-flight set to the ring,
// emits the access-log record, and (past SlowThreshold) the full span
// dump. No-op on a nil hub or nil trace.
func (h *Hub) Finish(t *Trace, status int, bytes int64, cache string) {
	if h == nil || t == nil {
		return
	}
	t.Finish(status, bytes, cache)
	h.inflight.Remove(t)
	h.ring.Add(t)

	names, durs := t.StageBreakdown()
	stages := make([]any, 0, len(names))
	for i, n := range names {
		stages = append(stages, slog.Float64(n, durs[i].Seconds()))
	}
	attrs := []any{
		slog.String("request_id", t.RequestID),
		slog.String("trace_id", t.TraceID),
		slog.String("route", t.Route),
		slog.Int("status", t.Status),
		slog.Int64("bytes", t.Bytes),
		slog.Float64("total_s", t.Total.Seconds()),
		slog.Float64("admission_wait_s", (t.StageDur("admission.queue") + t.StageDur("admission.slot")).Seconds()),
		slog.Group("stages", stages...),
	}
	if t.Cache != "" {
		attrs = append(attrs, slog.String("cache", t.Cache))
	}
	for _, n := range t.Notes() {
		attrs = append(attrs, slog.String(n[0], n[1]))
	}
	if d := t.Dropped(); d > 0 {
		attrs = append(attrs, slog.Uint64("spans_dropped", d))
	}
	h.log.Info("request", attrs...)

	if h.SlowThreshold > 0 && t.Total >= h.SlowThreshold {
		spans := t.Spans()
		tree := make([]any, 0, len(spans))
		for i, s := range spans {
			tree = append(tree, slog.Group(strconv.Itoa(i),
				slog.String("name", s.Name),
				slog.Int("worker", s.Worker),
				slog.Int("depth", s.Depth),
				slog.Float64("start_s", s.Start.Seconds()),
				slog.Float64("dur_s", s.Dur.Seconds()),
			))
		}
		h.log.Warn("slow request",
			slog.String("request_id", t.RequestID),
			slog.String("trace_id", t.TraceID),
			slog.String("route", t.Route),
			slog.Float64("total_s", t.Total.Seconds()),
			slog.Group("spans", tree...),
		)
	}
}

// inflightInfo is one live request in the /ops/requests listing.
type inflightInfo struct {
	RequestID string  `json:"request_id"`
	TraceID   string  `json:"trace_id"`
	Route     string  `json:"route"`
	Stage     string  `json:"stage"`
	ElapsedS  float64 `json:"elapsed_s"`
	Start     string  `json:"start"`
}

// HandleInflight serves GET /ops/requests: the live requests with
// their current stage and elapsed time, oldest first.
func (h *Hub) HandleInflight(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	traces := h.inflight.Snapshot()
	out := make([]inflightInfo, 0, len(traces))
	for _, t := range traces {
		out = append(out, inflightInfo{
			RequestID: t.RequestID,
			TraceID:   t.TraceID,
			Route:     t.Route,
			Stage:     t.CurrentStage(),
			ElapsedS:  now.Sub(t.Start).Seconds(),
			Start:     t.Start.UTC().Format(time.RFC3339Nano),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	json.NewEncoder(w).Encode(out) //nolint:errcheck // best-effort ops endpoint
}

// HandleRecent serves GET /ops/trace/recent[?n=K]: the last completed
// request span-trees as one Chrome trace_event file, loadable in
// about:tracing or Perfetto. Each request is a trace "process" whose
// lane 0 holds the request and stage spans (nested by time containment)
// and whose lanes 1..W hold the kernel worker item spans, so the
// per-request view shows exactly where the kernel sat inside the
// request envelope.
func (h *Hub) HandleRecent(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			http.Error(w, fmt.Sprintf("bad n %q", v), http.StatusBadRequest)
			return
		}
		n = parsed
	}
	traces := h.ring.Recent(n)
	tj := timeline.NewTraceJSON()
	// Oldest first so trace timestamps ascend; each trace's spans are
	// offset by its wall-clock start relative to the oldest, keeping
	// concurrent requests aligned on one time axis.
	var epoch time.Time
	for i := len(traces) - 1; i >= 0; i-- {
		if epoch.IsZero() || traces[i].Start.Before(epoch) {
			epoch = traces[i].Start
		}
	}
	pid := 0
	for i := len(traces) - 1; i >= 0; i-- {
		t := traces[i]
		pid++
		base := t.Start.Sub(epoch)
		tj.Process(pid, fmt.Sprintf("%s %s", t.Route, t.RequestID))
		tj.Thread(pid, 0, "request")
		tj.Complete(pid, 0, t.Route, "request", base, t.Total, map[string]any{
			"request_id": t.RequestID,
			"trace_id":   t.TraceID,
			"status":     t.Status,
			"cache":      t.Cache,
		})
		workers := map[int]bool{}
		for _, s := range t.Spans() {
			if s.Worker >= 0 {
				if !workers[s.Worker] {
					workers[s.Worker] = true
					tj.Thread(pid, s.Worker+1, fmt.Sprintf("worker %d", s.Worker))
				}
				tj.Complete(pid, s.Worker+1, s.Name, "kernel", base+s.Start, s.Dur, nil)
				continue
			}
			tj.Complete(pid, 0, s.Name, "stage", base+s.Start, s.Dur, map[string]any{"depth": s.Depth})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	tj.Write(w) //nolint:errcheck // best-effort ops endpoint
}
