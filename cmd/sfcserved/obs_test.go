package main

// End-to-end tests for the request-observability layer: access logs,
// trace export, Prometheus exposition, live in-flight inspection, and
// the -obs-off ablation. These run under -race in CI (make race and the
// smoke job's explicit pass).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sfcmem/internal/obs"
)

// logSink is a concurrency-safe writer capturing the access-log stream.
// slog serializes handler writes, but the test reads while background
// requests may still be logging, so reads lock too.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *logSink) lines(t *testing.T) []map[string]any {
	t.Helper()
	s.mu.Lock()
	raw := s.buf.String()
	s.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("access log line is not JSON: %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// traceEventJSON is the subset of a Chrome trace event the tests read.
type traceEventJSON struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestObservabilityEndToEnd drives the acceptance scenario: one tagged
// /render request under concurrent load must yield (1) an access-log
// line with its request ID and per-stage breakdown, (2) a span tree on
// /ops/trace/recent whose top-level stage durations sum to within 5%
// of the logged total, and (3) Prometheus-scrapeable RED metrics.
func TestObservabilityEndToEnd(t *testing.T) {
	sink := &logSink{}
	cfg := testConfig()
	cfg.accessLog = sink
	cfg.slowLog = time.Nanosecond // every request dumps its span tree
	cfg.cacheBytes = 1 << 20
	a, _, _ := startApp(t, cfg)
	api, ops := "http://"+a.apiAddr(), "http://"+a.opsAddr()

	// Background load: concurrent renders of distinct views.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(view int) {
			defer wg.Done()
			resp := postJSON(t, api+"/render", renderRequest{Volume: "demo", View: view, Views: 8, Width: 64, Height: 64, Workers: 2})
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}(i + 1)
	}

	// The probe request carries inbound trace context; the service must
	// honor the IDs and emit its own child span.
	const reqID = "probe-e2e-1"
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	body, _ := json.Marshal(renderRequest{Volume: "demo", Views: 8, Width: 128, Height: 128, Workers: 2})
	req, err := http.NewRequest("POST", api+"/render", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", reqID)
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	wg.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe render: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Errorf("X-Request-Id = %q, want %q echoed", got, reqID)
	}
	tp := resp.Header.Get("Traceparent")
	if !strings.HasPrefix(tp, "00-"+traceID+"-") {
		t.Errorf("Traceparent = %q, want trace ID %s continued", tp, traceID)
	}

	// (1) Access log: boot banner first, then the probe's line with a
	// per-stage breakdown, then (slow-log) its span dump.
	lines := sink.lines(t)
	if len(lines) == 0 || lines[0]["msg"] != "boot" || lines[0]["go_version"] == nil {
		t.Fatalf("first log record is not the boot banner: %v", lines[:1])
	}
	var access, slow map[string]any
	for _, l := range lines {
		if l["request_id"] != reqID {
			continue
		}
		switch l["msg"] {
		case "request":
			access = l
		case "slow request":
			slow = l
		}
	}
	if access == nil {
		t.Fatalf("no access-log line for %s in %d records", reqID, len(lines))
	}
	if access["trace_id"] != traceID || access["route"] != "render" ||
		access["status"] != float64(200) || access["cache"] != "miss" {
		t.Errorf("access record fields: %v", access)
	}
	if access["bytes"].(float64) <= 0 {
		t.Errorf("access record bytes = %v", access["bytes"])
	}
	stages, _ := access["stages"].(map[string]any)
	for _, want := range []string{"decode", "digest", "cache"} {
		if stages[want] == nil {
			t.Errorf("stage breakdown missing %q: %v", want, stages)
		}
	}
	if slow == nil || slow["spans"] == nil {
		t.Errorf("slow-log span dump missing for %s", reqID)
	}
	totalS := access["total_s"].(float64)

	// (2) Trace export: the probe's span tree, top-level stages summing
	// to within 5% of the logged total.
	var ct struct {
		TraceEvents []traceEventJSON `json:"traceEvents"`
	}
	getJSON(t, ops+"/ops/trace/recent", &ct)
	pid := -1
	for _, e := range ct.TraceEvents {
		if e.Cat == "request" && e.Args["request_id"] == reqID {
			pid = e.PID
			break
		}
	}
	if pid < 0 {
		t.Fatalf("probe request not in /ops/trace/recent (%d events)", len(ct.TraceEvents))
	}
	var stageSumUS float64
	var sawKernelStage, sawWorkerSpan bool
	for _, e := range ct.TraceEvents {
		if e.PID != pid || e.Ph != "X" {
			continue
		}
		switch e.Cat {
		case "stage":
			if e.Args["depth"] == float64(0) {
				stageSumUS += e.Dur
			}
			if e.Name == "kernel" {
				sawKernelStage = true
			}
		case "kernel":
			sawWorkerSpan = true // per-item span on a worker lane
		}
	}
	if !sawKernelStage || !sawWorkerSpan {
		t.Errorf("span tree incomplete: kernel stage=%v, worker spans=%v", sawKernelStage, sawWorkerSpan)
	}
	stageSumS := stageSumUS / 1e6
	if rel := math.Abs(stageSumS-totalS) / totalS; rel > 0.05 {
		t.Errorf("top-level stages sum to %.6fs, logged total %.6fs (%.1f%% apart, want <= 5%%)",
			stageSumS, totalS, rel*100)
	}

	// (3) Prometheus RED metrics for the route.
	presp, err := http.Get(ops + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	promText, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if ctype := presp.Header.Get("Content-Type"); !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("prometheus Content-Type %q", ctype)
	}
	prom := string(promText)
	for _, want := range []string{
		"# TYPE sfcserved_http_render_2xx_total counter",
		"sfcserved_http_render_latency_seconds_bucket{le=\"+Inf\"} ",
		"sfcserved_render_latency_seconds_bucket{le=",
		"sfcserved_build_info{",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	// The request counter actually counted: 2xx >= 5 (4 load + probe).
	var count2xx float64
	for _, line := range strings.Split(prom, "\n") {
		if v, ok := strings.CutPrefix(line, "sfcserved_http_render_2xx_total "); ok {
			fmt.Sscanf(v, "%g", &count2xx) //nolint:errcheck
		}
	}
	if count2xx < 5 {
		t.Errorf("sfcserved_http_render_2xx_total = %v, want >= 5", count2xx)
	}

	// JSON stays the default view on the same mount.
	var snap map[string]json.RawMessage
	getJSON(t, ops+"/metrics", &snap)
	for _, key := range []string{"http.render.2xx", "http.render.latency", "build.info", "admission.rejected"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("JSON /metrics missing %q", key)
		}
	}
}

// TestInflightInspection parks a render inside the kernel stage and
// checks /ops/requests reports it live, then empty after release.
func TestInflightInspection(t *testing.T) {
	cfg := testConfig()
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook := newBlockingHook()
	a.srv.renderImage = hook.render // before run: no concurrent access yet
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- a.run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-runDone; err != nil {
			t.Errorf("app.run: %v", err)
		}
	})

	done := make(chan int, 1)
	go func() {
		resp := postJSON(t, "http://"+a.apiAddr()+"/render",
			renderRequest{Volume: "demo", Views: 8, Width: 16, Height: 16, Workers: 1})
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-hook.entered

	var inflight []inflightInfoJSON
	getJSON(t, "http://"+a.opsAddr()+"/ops/requests", &inflight)
	if len(inflight) != 1 {
		t.Fatalf("%d in-flight requests, want 1", len(inflight))
	}
	r := inflight[0]
	if r.Route != "render" || r.Stage != "kernel" || r.RequestID == "" || r.ElapsedS < 0 {
		t.Errorf("in-flight record %+v", r)
	}

	close(hook.release)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("parked render finished with %d", st)
	}
	// Finish runs after the handler returns, so the client can see the
	// response a beat before the in-flight entry is retired.
	waitFor(t, "in-flight set to drain", func() bool {
		var left []inflightInfoJSON
		getJSON(t, "http://"+a.opsAddr()+"/ops/requests", &left)
		return len(left) == 0
	})
}

// inflightInfoJSON mirrors the /ops/requests record shape.
type inflightInfoJSON struct {
	RequestID string  `json:"request_id"`
	Route     string  `json:"route"`
	Stage     string  `json:"stage"`
	ElapsedS  float64 `json:"elapsed_s"`
}

// TestObsOffAblation checks -obs-off: no identity headers, no access
// log, no ops tracing endpoints — but RED metrics still count.
func TestObsOffAblation(t *testing.T) {
	sink := &logSink{}
	cfg := testConfig()
	cfg.accessLog = sink
	cfg.obsOff = true
	a, _, _ := startApp(t, cfg)

	resp := postJSON(t, "http://"+a.apiAddr()+"/render",
		renderRequest{Volume: "demo", Views: 8, Width: 16, Height: 16, Workers: 1})
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "" {
		t.Errorf("X-Request-Id %q emitted with -obs-off", got)
	}
	if sink.buf.Len() != 0 {
		t.Errorf("access log written with -obs-off: %q", sink.buf.String())
	}
	for _, path := range []string{"/ops/requests", "/ops/trace/recent"} {
		r, err := http.Get("http://" + a.opsAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d with -obs-off, want 404", path, r.StatusCode)
		}
	}
	// RED metrics are part of the metrics layer, not the obs layer.
	if got := counterTotal(t, "http://"+a.opsAddr(), "http.render.2xx"); got != 1 {
		t.Errorf("http.render.2xx = %d with -obs-off, want 1", got)
	}
}

// TestVersionEndpoint checks /version on both ports and the build.info
// registry entry.
func TestVersionEndpoint(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	for _, base := range []string{"http://" + a.apiAddr(), "http://" + a.opsAddr()} {
		var v map[string]string
		getJSON(t, base+"/version", &v)
		for _, key := range []string{"module_version", "go_version", "vcs_revision", "vcs_modified"} {
			if v[key] == "" {
				t.Errorf("%s/version missing %q: %v", base, key, v)
			}
		}
		if !strings.HasPrefix(v["go_version"], "go") {
			t.Errorf("go_version %q", v["go_version"])
		}
	}
}

// TestStatusClassCounters drives one request per class and checks the
// per-route counters split correctly.
func TestStatusClassCounters(t *testing.T) {
	cfg := testConfig()
	cfg.cacheBytes = 1 << 20
	a, _, _ := startApp(t, cfg)
	api := "http://" + a.apiAddr()

	// 2xx.
	ok := renderRequest{Volume: "demo", Views: 8, Width: 16, Height: 16, Workers: 1}
	resp := postJSON(t, api+"/render", ok)
	etag := resp.Header.Get("ETag")
	resp.Body.Close()
	// 3xx: conditional replay of the same request.
	body, _ := json.Marshal(ok)
	req, _ := http.NewRequest("POST", api+"/render", bytes.NewReader(body))
	req.Header.Set("If-None-Match", etag)
	r304, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r304.Body.Close()
	if r304.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional render: status %d, want 304", r304.StatusCode)
	}
	// 4xx.
	resp = postJSON(t, api+"/render", renderRequest{Volume: "missing"})
	resp.Body.Close()

	for key, want := range map[string]uint64{
		"http.render.2xx": 1,
		"http.render.3xx": 1,
		"http.render.4xx": 1,
		"http.render.5xx": 0,
	} {
		if got := counterTotal(t, "http://"+a.opsAddr(), key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
}

// counterTotal reads one counter's total from the JSON /metrics snapshot.
func counterTotal(t *testing.T, opsBase, key string) uint64 {
	t.Helper()
	var snap map[string]json.RawMessage
	getJSON(t, opsBase+"/metrics", &snap)
	raw, ok := snap[key]
	if !ok {
		return 0
	}
	var c struct {
		Total uint64 `json:"total"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("metric %s is not a counter: %s", key, raw)
	}
	return c.Total
}

// benchApp builds and serves an app for a benchmark, returning its API
// base URL.
func benchApp(b *testing.B, cfg config) string {
	b.Helper()
	a, err := newApp(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()
	b.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			b.Errorf("app.run: %v", err)
		}
	})
	return "http://" + a.apiAddr()
}

// benchRender drives sequential /render requests through the full HTTP
// path, each for a view of its own so that every one runs the kernel
// rather than hitting the response cache. Run with -obs on and off to
// measure the tracing overhead recorded in DESIGN.md §11:
//
//	go test -run NONE -bench 'BenchmarkRenderObs' -benchtime 50x ./cmd/sfcserved/
func benchRender(b *testing.B, obsOff bool) {
	cfg := testConfig()
	cfg.obsOff = obsOff
	api := benchApp(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ := json.Marshal(renderRequest{Volume: "demo", View: i, Views: 1 << 20, Width: 64, Height: 64, Workers: 2})
		resp, err := http.Post(api+"/render", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("render: status %d", resp.StatusCode)
		}
	}
}

func BenchmarkRenderObsOn(b *testing.B)  { benchRender(b, false) }
func BenchmarkRenderObsOff(b *testing.B) { benchRender(b, true) }

// TestFilterTraceKeepsStages filters a 64³ volume: its 4096 pencil
// spans overflow the trace's item-span cap, but stage spans have their
// own region, so the cache, kernel and encode stages — all recorded
// after the pencils, when their stages end — survive in the trace and
// the access log, while the lost pencils are counted as dropped.
func TestFilterTraceKeepsStages(t *testing.T) {
	sink := &logSink{}
	cfg := testConfig()
	cfg.accessLog = sink
	cfg.cacheBytes = 1 << 20
	a, _, _ := startApp(t, cfg)
	api := "http://" + a.apiAddr()

	resp := postJSON(t, api+"/volumes", createVolumeRequest{Name: "big", Dataset: "phantom", Size: 64, Layout: "zorder"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create volume: status %d", resp.StatusCode)
	}
	resp = postJSON(t, api+"/filter", filterRequest{Src: "big", Radius: 1, Workers: 1})
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filter: status %d", resp.StatusCode)
	}

	var tr *obs.Trace
	for _, rt := range a.srv.hub.Ring().Recent(0) {
		if rt.Route == "filter" {
			tr = rt
			break
		}
	}
	if tr == nil {
		t.Fatal("filter trace not in the ring")
	}
	if tr.Dropped() == 0 {
		t.Error("Dropped() = 0: 4096 pencil spans should overflow the item cap")
	}
	for _, stage := range []string{"cache", "kernel", "encode"} {
		if tr.StageDur(stage) == 0 {
			t.Errorf("filter trace lost its %q stage", stage)
		}
	}
	var access map[string]any
	for _, l := range sink.lines(t) {
		if l["msg"] == "request" && l["route"] == "filter" {
			access = l
		}
	}
	stages, _ := access["stages"].(map[string]any)
	if stages["cache"] == nil {
		t.Errorf("access log stage breakdown lost %q: %v", "cache", access)
	}
	if access["spans_dropped"] == nil {
		t.Errorf("access log does not report the dropped pencil spans: %v", access)
	}
}

// TestUploadTraceStages: a raw upload's trace and access-log line split
// its time into "ingest" (body to grid) and "persist" (store.Put), on a
// disk-backed store where persisting writes bricks.
func TestUploadTraceStages(t *testing.T) {
	sink := &logSink{}
	cfg := testConfig()
	cfg.accessLog = sink
	cfg.dataDir = t.TempDir()
	a, _, _ := startApp(t, cfg)
	const n = 16
	uploadRaw(t, a, "up", n, bytes.Repeat([]byte{7}, n*n*n))

	var tr *obs.Trace
	for _, rt := range a.srv.hub.Ring().Recent(0) {
		if rt.Route == "volumes" && rt.StageDur("ingest") > 0 {
			tr = rt
			break
		}
	}
	if tr == nil {
		t.Fatal("no volumes trace with an ingest stage in the ring")
	}
	if tr.StageDur("persist") == 0 {
		t.Error("upload trace has no persist stage")
	}
	var access map[string]any
	for _, l := range sink.lines(t) {
		if stages, _ := l["stages"].(map[string]any); l["msg"] == "request" && l["route"] == "volumes" && stages["ingest"] != nil {
			access = l
		}
	}
	if access == nil {
		t.Fatal("no volumes access-log line carries an ingest stage")
	}
	if stages := access["stages"].(map[string]any); stages["persist"] == nil {
		t.Errorf("upload access log lost its persist stage: %v", access)
	}
}

// TestFilterWorkerSpans: a sync /filter trace and a filter job's trace
// both carry per-pencil worker spans. The work observer travels in
// FilterOptions.Observer on the path both share, so neither may lose
// the kernel's per-item spans.
func TestFilterWorkerSpans(t *testing.T) {
	cfg := testConfig()
	cfg.cacheBytes = 1 << 20
	a, _, _ := startApp(t, cfg)
	api, ops := "http://"+a.apiAddr(), "http://"+a.opsAddr()

	resp := postWithHeader(t, api+"/filter", filterRequest{Src: "demo", Dst: "demo.sync", Radius: 1, Workers: 2}, "X-Request-Id", "filter-sync")
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync filter: status %d", resp.StatusCode)
	}
	freq := filterRequest{Src: "demo", Dst: "demo.job", Radius: 1, Workers: 2}
	resp = postWithHeader(t, api+"/jobs", jobRequest{Filter: &freq}, "X-Request-Id", "filter-job")
	var acc struct {
		ID string `json:"id"`
	}
	err := json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("POST /jobs: status %d (err %v)", resp.StatusCode, err)
	}
	waitFor(t, "filter job done", func() bool { return jobState(t, api, acc.ID) == "done" })

	// pencils counts the per-item worker spans in reqID's trace, or -1
	// while the trace has not reached the ring (a job's lands just after
	// its terminal event).
	pencils := func(reqID string) int {
		var ct struct {
			TraceEvents []traceEventJSON `json:"traceEvents"`
		}
		getJSON(t, ops+"/ops/trace/recent", &ct)
		pid := -1
		for _, e := range ct.TraceEvents {
			if e.Cat == "request" && e.Args["request_id"] == reqID {
				pid = e.PID
			}
		}
		if pid < 0 {
			return -1
		}
		n := 0
		for _, e := range ct.TraceEvents {
			if e.PID == pid && e.Ph == "X" && e.Cat == "kernel" && e.Name == "pencil" {
				n++
			}
		}
		return n
	}
	for _, reqID := range []string{"filter-sync", "filter-job"} {
		waitFor(t, reqID+" trace in the ring", func() bool { return pencils(reqID) >= 0 })
		if n := pencils(reqID); n == 0 {
			t.Errorf("%s trace has no per-pencil worker spans", reqID)
		}
	}
}
