package main

// Request-observability glue: the per-route instrumentation middleware
// (trace lifecycle, RED metrics, access logs), the response writer that
// captures status and byte counts, and the /version build-info surface.

import (
	"encoding/json"
	"net/http"
	"runtime/debug"
	"time"

	"sfcmem/internal/metrics"
)

// statusClasses are the response classes counted per route. 3xx is
// included because conditional requests answer 304 on the cache path.
var statusClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// routeStats is one route's RED instrumentation: request counts split
// by status class and the whole-request latency distribution (distinct
// from render.latency/filter.latency, which time only the kernel+encode
// section — the gap between the two is queueing, cache and transport).
type routeStats struct {
	classes map[string]*metrics.Counter
	latency *metrics.Histogram
}

// newRouteStats registers the http.<route>.* family in reg.
func newRouteStats(reg *metrics.Registry, route string) *routeStats {
	rs := &routeStats{classes: make(map[string]*metrics.Counter, len(statusClasses))}
	for _, c := range statusClasses {
		rs.classes[c] = reg.Counter("http."+route+"."+c, 1)
	}
	rs.latency = reg.Histogram("http." + route + ".latency")
	return rs
}

// observe records one completed request.
func (rs *routeStats) observe(status int, d time.Duration) {
	class := "5xx"
	switch {
	case status >= 200 && status < 300:
		class = "2xx"
	case status >= 300 && status < 400:
		class = "3xx"
	case status >= 400 && status < 500:
		class = "4xx"
	}
	rs.classes[class].Inc(0)
	rs.latency.Observe(d)
}

// statusWriter captures the status code and body size a handler wrote.
// WriteHeader-less handlers count as 200, matching net/http.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so streaming responses (the
// /jobs SSE endpoint) actually leave the process event by event.
// Without this passthrough the wrapper hides the underlying
// http.Flusher and every instrumented handler's writes sit in the
// server's buffer until the handler returns — fatal for progressive
// delivery. Flushing commits the response, so an unset status counts
// as 200 from here on, matching net/http.
func (w *statusWriter) Flush() {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.NewResponseController,
// which walks Unwrap chains to find capabilities (deadlines, hijack)
// this wrapper doesn't re-implement.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument wraps a handler with the request-observability envelope:
// it opens a trace (honoring inbound traceparent/X-Request-Id), stamps
// the response identity headers, runs the handler with the trace in its
// context, then records RED metrics, the access-log line, and the
// completed span tree. RED metrics are part of the metrics layer and
// stay on under -obs-off; only tracing and logging (the per-request
// work) ride on the hub.
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rs := s.routes[route]
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		t, ctx := s.hub.Start(r.Context(), route, r.Header)
		if t != nil {
			w.Header().Set("X-Request-Id", t.RequestID)
			w.Header().Set("Traceparent", t.Traceparent())
			r = r.WithContext(ctx)
		}
		h(sw, r)
		elapsed := time.Since(start)
		s.hub.Finish(t, sw.status(), sw.bytes, sw.Header().Get("X-Cache"))
		rs.observe(sw.status(), elapsed)
	}
}

// versionInfo collects the build identity from the binary itself:
// module version, toolchain, and VCS state when the build embedded
// them. Values the build did not stamp read "unknown" rather than
// vanishing, so log fields and labels are stable across build modes.
func versionInfo() map[string]string {
	info := map[string]string{
		"module_version": "unknown",
		"go_version":     "unknown",
		"vcs_revision":   "unknown",
		"vcs_modified":   "unknown",
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info["go_version"] = bi.GoVersion
	if bi.Main.Version != "" {
		info["module_version"] = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info["vcs_revision"] = s.Value
		case "vcs.modified":
			info["vcs_modified"] = s.Value
		}
	}
	return info
}

// handleVersion serves GET /version: the build identity as JSON. The
// same facts live in the metrics registry as build.info (and therefore
// in the Prometheus exposition as sfcserved_build_info).
func (s *server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(versionInfo()) //nolint:errcheck
}
