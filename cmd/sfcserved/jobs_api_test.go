package main

// End-to-end coverage of the /jobs API: progressive SSE delivery
// (coarse frame strictly before the full render completes), one coarse
// subsample per volume generation, byte-identity of job output with
// the sync path, cancellation mid-refine releasing admission slots,
// mixed-priority concurrent load, and drain semantics — all meant to
// run under -race.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcmem"
	"sfcmem/internal/jobs"
	"sfcmem/internal/store"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id    string
	event string
	data  []byte
}

// readSSE parses the next event off an SSE stream.
func readSSE(br *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	var data [][]byte
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if ev.event != "" || len(data) > 0 {
				ev.data = bytes.Join(data, []byte("\n"))
				return ev, nil
			}
			continue
		}
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			ev.id = v
		}
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			ev.event = v
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok {
			data = append(data, []byte(v))
		}
	}
}

// submitJob posts a job and returns its ID.
func submitJob(t *testing.T, base string, body jobRequest) string {
	t.Helper()
	resp := postJSON(t, base+"/jobs", body)
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d body %s", resp.StatusCode, b)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &acc); err != nil || acc.ID == "" {
		t.Fatalf("POST /jobs response %s (err %v)", b, err)
	}
	return acc.ID
}

// jobState fetches GET /jobs/{id} and returns the state.
func jobState(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return string(st.State)
}

// gatedFullRender passes the first render call (the coarse pass)
// straight through and parks every later one until released, so tests
// can hold a job mid-refine deterministically.
type gatedFullRender struct {
	calls   atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func newGatedFullRender() *gatedFullRender {
	return &gatedFullRender{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (h *gatedFullRender) render(ctx context.Context, vol *sfcmem.AnyGrid, cam sfcmem.Camera, tf *sfcmem.TransferFunc, o sfcmem.RenderOptions) (*sfcmem.Image, error) {
	if h.calls.Add(1) >= 2 {
		h.entered <- struct{}{}
		select {
		case <-h.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return sfcmem.RenderAnyCtx(ctx, vol, cam, tf, o)
}

// TestJobProgressiveSSE drives one render job end to end over SSE and
// pins the progressive contract: the coarse frame is delivered while
// the full-resolution render is still running, then the refined frame
// arrives, byte-identical to what a synchronous /render of the same
// parameters produces.
func TestJobProgressiveSSE(t *testing.T) {
	cfg := testConfig()
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook := newGatedFullRender()
	a.srv.renderImage = hook.render
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()
	base := "http://" + a.apiAddr()

	req := renderRequest{Volume: "demo", View: 3, Views: 8, Width: 48, Height: 48, Workers: 2}
	id := submitJob(t, base, jobRequest{Render: &req})

	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	var got []string
	var coarse, refined frameEvent
	readUntil := func(typ string) {
		t.Helper()
		for {
			ev, err := readSSE(br)
			if err != nil {
				t.Fatalf("SSE stream ended early (after %v): %v", got, err)
			}
			got = append(got, ev.event)
			switch ev.event {
			case "coarse":
				if err := json.Unmarshal(ev.data, &coarse); err != nil {
					t.Fatal(err)
				}
			case "refined":
				if err := json.Unmarshal(ev.data, &refined); err != nil {
					t.Fatal(err)
				}
			case "failed":
				t.Fatalf("job failed: %s", ev.data)
			}
			if ev.event == typ {
				return
			}
		}
	}

	// The coarse frame must arrive while the full render is parked in
	// the hook — progressive delivery, not an afterthought.
	readUntil("coarse")
	<-hook.entered
	if st := jobState(t, base, id); st != "running" {
		t.Fatalf("job state %q after coarse frame, want running (full render still in flight)", st)
	}
	if coarse.Level != 2 || coarse.Width != 16 || coarse.Height != 16 {
		t.Errorf("coarse frame level %d %dx%d, want level 2 at 16x16 (48>>2 clamped)", coarse.Level, coarse.Width, coarse.Height)
	}
	cpix, err := base64.StdEncoding.DecodeString(coarse.Frame)
	if err != nil {
		t.Fatal(err)
	}
	cimg, err := png.Decode(bytes.NewReader(cpix))
	if err != nil {
		t.Fatalf("coarse frame is not a PNG: %v", err)
	}
	if b := cimg.Bounds(); b.Dx() != coarse.Width || b.Dy() != coarse.Height {
		t.Errorf("coarse PNG %dx%d does not match event metadata %dx%d", b.Dx(), b.Dy(), coarse.Width, coarse.Height)
	}

	close(hook.release)
	readUntil("done")
	want := []string{"queued", "coarse", "refined", "done"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("event sequence %v, want %v", got, want)
	}

	// Byte identity with the sync path. The job left its frame in the
	// response cache, so the volume's own bytes are uploaded over it
	// first: the new generation makes the sync render recompute from
	// scratch instead of replaying the job's frame.
	rpix, err := base64.StdEncoding.DecodeString(refined.Frame)
	if err != nil {
		t.Fatal(err)
	}
	reuploadDemo(t, a)
	sresp := postJSON(t, base+"/render", req)
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || sresp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("sync render: status %d, X-Cache %q, want a 200 miss", sresp.StatusCode, sresp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(rpix, sbody) {
		t.Errorf("refined frame (%d bytes) differs from sync render (%d bytes)", len(rpix), len(sbody))
	}

	// Re-subscribing after completion replays the full history.
	resp2, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	br2 := bufio.NewReader(resp2.Body)
	var replay []string
	for {
		ev, err := readSSE(br2)
		if err != nil {
			t.Fatalf("replay ended early: %v", err)
		}
		replay = append(replay, ev.event)
		if ev.event == "done" {
			break
		}
	}
	resp2.Body.Close()
	if fmt.Sprint(replay) != fmt.Sprint(want) {
		t.Errorf("replayed sequence %v, want %v", replay, want)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("app.run: %v", err)
	}
}

// TestJobsShareCoarseSubsample submits render jobs for one volume
// generation, dtype and coarse level one after another: the coarse
// subsample is built once and reused, a PUT of the volume drops it with
// the old generation and the next job builds it again, and every
// refined frame is byte-identical to the sync /render of its
// parameters, which the job left in the response cache.
func TestJobsShareCoarseSubsample(t *testing.T) {
	cfg := testConfig()
	cfg.cacheBytes = 1 << 20
	a, _, _ := startApp(t, cfg)
	base := "http://" + a.apiAddr()
	st := a.srv.store.(*store.Store)

	// runJobs runs one uint8 render job per view, each after the last
	// has finished, and checks its refined frame against the cache.
	runJobs := func(views ...int) {
		t.Helper()
		for _, v := range views {
			req := renderRequest{Volume: "pv", View: v, Views: 8, Width: 32, Height: 32, Workers: 1, Dtype: "uint8"}
			id := submitJob(t, base, jobRequest{Render: &req})
			frame := jobRefinedFrame(t, base, id)
			waitFor(t, "job done", func() bool { return jobState(t, base, id) == "done" })
			resp := postJSON(t, base+"/render", req)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
				t.Errorf("sync render of view %d after its job: status %d, X-Cache %q, want a hit", v, resp.StatusCode, resp.Header.Get("X-Cache"))
			}
			if !bytes.Equal(frame, body) {
				t.Errorf("view %d: refined frame (%d bytes) differs from the sync render (%d bytes)", v, len(frame), len(body))
			}
		}
	}

	putPlume(t, base, "pv")
	runJobs(0, 1, 2, 3)
	if got := spanCount(a, "job", "subsample"); got != 1 {
		t.Errorf("4 jobs on one generation: %d subsample builds, want 1", got)
	}
	vol, err := st.Get("pv")
	if err != nil {
		t.Fatal(err)
	}
	g, err := a.srv.coarse(nil, vol, sfcmem.U8, 2)
	if err != nil {
		t.Fatal(err)
	}
	u8, err := a.srv.converted(nil, vol, sfcmem.U8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := a.srv.prepare(nil, vol, sfcmem.U8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.ResidentBytes(), residentVolumeBytes(st)+u8.Bytes()+p.accel.Bytes()+g.Bytes(); got != want {
		t.Errorf("resident bytes %d, want %d: the subsample must count against the RAM tier", got, want)
	}
	if nx, ny, nz := g.Dims(); nx != 8 || ny != 8 || nz != 8 || g.Dtype() != sfcmem.U8 {
		t.Errorf("coarse grid %dx%dx%d %v, want the 8³ uint8 level-2 subsample of the 32³ volume", nx, ny, nz, g.Dtype())
	}

	putPlume(t, base, "pv")
	if got, want := st.ResidentBytes(), residentVolumeBytes(st); got != want {
		t.Errorf("after PUT resident bytes %d, want %d: the old generation's subsample must go", got, want)
	}
	runJobs(4, 5)
	if got := spanCount(a, "job", "subsample"); got != 2 {
		t.Errorf("PUT + 2 jobs: %d subsample builds in all, want 2", got)
	}
	if st := a.srv.jobs.Stats(); st.Done != 6 || st.Dispatched != 6 {
		t.Errorf("job stats %+v, want 6 dispatched and done", st)
	}
}

// TestJobCancelMidRefineFreesSlot parks a job in its full-resolution
// pass, cancels it over the API, and checks the kernel aborts, the
// terminal state is cancelled, and the admission slot is released for
// new work.
func TestJobCancelMidRefineFreesSlot(t *testing.T) {
	cfg := testConfig()
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook := newGatedFullRender()
	hook.calls.Store(1) // no coarse pass in this job: gate the very first call
	a.srv.renderImage = hook.render
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()
	base := "http://" + a.apiAddr()

	zero := 0
	req := renderRequest{Volume: "demo", Views: 8, Width: 32, Height: 32, Workers: 1}
	id := submitJob(t, base, jobRequest{Render: &req, CoarseLevel: &zero})
	<-hook.entered // parked mid-refine, holding an admission slot
	if got := len(a.srv.run); got != 1 {
		t.Fatalf("run slots held %d, want 1", got)
	}

	dreq, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /jobs/%s: status %d", id, dresp.StatusCode)
	}
	waitFor(t, "job cancelled", func() bool { return jobState(t, base, id) == "cancelled" })
	waitFor(t, "admission slot freed", func() bool { return len(a.srv.run) == 0 })
	if got := a.srv.jobs.Stats().Cancelled; got != 1 {
		t.Errorf("cancelled counter %d, want 1", got)
	}

	// The freed slot serves new work: a sync render (not gated — the
	// hook only parks calls 2+, and the cancelled job consumed call 2).
	hook.calls.Store(-1000)
	resp := postJSON(t, base+"/render", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("render after cancel: status %d", resp.StatusCode)
	}

	cancel()
	if err := <-done; err != nil {
		t.Errorf("app.run: %v", err)
	}
}

// TestJobsMixedPriorityConcurrent is the -race soak the issue asks
// for: 32 concurrent jobs across both lanes, mixed render/filter,
// some cancelled mid-flight; every job must reach a terminal state and
// none may fail.
func TestJobsMixedPriorityConcurrent(t *testing.T) {
	cfg := testConfig()
	cfg.cacheBytes = 1 << 20
	a, _, _ := startApp(t, cfg)
	base := "http://" + a.apiAddr()

	const n = 32
	type outcome struct {
		id    string
		state string
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			var body jobRequest
			if i%2 == 0 {
				body.Priority = "bulk"
			}
			if i%8 == 7 {
				body.Filter = &filterRequest{Src: "demo", Dst: fmt.Sprintf("f%d", i), Kernel: "gaussian", Radius: 1, Workers: 1}
			} else {
				body.Render = &renderRequest{Volume: "demo", View: i % 4, Views: 8, Width: 24, Height: 24, Workers: 1}
			}
			id := submitJob(t, base, body)
			if i%5 == 0 {
				dreq, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+id, nil)
				if dresp, err := http.DefaultClient.Do(dreq); err == nil {
					dresp.Body.Close()
				}
			}
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				st := jobState(t, base, id)
				if st == "done" || st == "failed" || st == "cancelled" {
					results <- outcome{id, st}
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			results <- outcome{id, "stuck"}
		}(i)
	}
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		o := <-results
		counts[o.state]++
		if o.state == "stuck" || o.state == "failed" {
			t.Errorf("job %s ended %s", o.id, o.state)
		}
	}
	if counts["done"]+counts["cancelled"] != n {
		t.Errorf("outcomes %v, want %d done+cancelled", counts, n)
	}
	st := a.srv.jobs.Stats()
	if st.Submitted != n {
		t.Errorf("submitted %d, want %d", st.Submitted, n)
	}

	// The jobs.* metrics family is live on the ops listener.
	resp, err := http.Get("http://" + a.opsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"jobs.submitted", "jobs.done", "jobs.batches", "jobs.pending", "jobs.ttfb"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
}

// TestJobDrainCompletesQueuedWork parks the only runner in a kernel,
// queues jobs behind it and begins shutdown: the drain must run the
// queued jobs to completion, and run() must exit clean.
func TestJobDrainCompletesQueuedWork(t *testing.T) {
	cfg := testConfig()
	cfg.slots = 1 // one runner
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook := newBlockingHook()
	a.srv.renderImage = hook.render
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()
	base := "http://" + a.apiAddr()

	var ids []string
	for i := 0; i < 4; i++ {
		req := renderRequest{Volume: "demo", View: i, Views: 8, Width: 24, Height: 24, Workers: 1}
		ids = append(ids, submitJob(t, base, jobRequest{Render: &req}))
		if i == 0 {
			<-hook.entered // the runner is parked in the first job
		}
	}
	for _, id := range ids[1:] {
		if st := jobState(t, base, id); st != "queued" {
			t.Fatalf("job %s is %s behind a parked runner, want queued", id, st)
		}
	}
	cancel() // SIGTERM equivalent
	// Release the kernel only once the manager refuses new work, so the
	// queued jobs are run by the drain.
	waitFor(t, "drain began", func() bool {
		_, err := a.srv.jobs.Submit(jobs.Spec{Run: func(context.Context, *jobs.Job) error { return nil }})
		return errors.Is(err, jobs.ErrDraining)
	})
	close(hook.release)
	if err := <-done; err != nil {
		t.Fatalf("app.run during drain: %v", err)
	}
	for _, id := range ids {
		j, ok := a.srv.jobs.Get(id)
		if !ok {
			t.Fatalf("job %s evicted during drain", id)
		}
		if j.State() != jobs.StateDone {
			t.Errorf("job %s drained to %s, want done", id, j.State())
		}
	}
}

// TestJobRefusedWhileDraining: a job submitted after the drain began
// answers 503 and its trace is closed with that status, not left in
// /ops/requests as a request that never ends.
func TestJobRefusedWhileDraining(t *testing.T) {
	a, err := newApp(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.apiLn.Close()
		a.opsLn.Close()
	})
	if err := a.srv.jobs.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	a.srv.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(`{"render":{"volume":"demo"}}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST /jobs while draining: status %d, want 503", rec.Code)
	}
	in := httptest.NewRecorder()
	a.srv.hub.HandleInflight(in, nil)
	var inflight []json.RawMessage
	if err := json.Unmarshal(in.Body.Bytes(), &inflight); err != nil || len(inflight) != 0 {
		t.Errorf("in-flight requests %s (err %v), want none", in.Body, err)
	}
	var statuses []int
	for _, tr := range a.srv.hub.Ring().Recent(0) {
		if tr.Route == "job" {
			statuses = append(statuses, tr.Status)
		}
	}
	if len(statuses) != 1 || statuses[0] != http.StatusServiceUnavailable {
		t.Errorf("job trace statuses %v, want the refused job's 503", statuses)
	}
}

// TestJobDrainTimeoutFailsCleanly parks a job in its kernel with a
// short drain budget: shutdown must cancel the kernel through the job
// context, mark the job failed (not leave it running), and report the
// timeout.
func TestJobDrainTimeoutFailsCleanly(t *testing.T) {
	cfg := testConfig()
	cfg.drainTimeout = 300 * time.Millisecond
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook := newGatedFullRender()
	hook.calls.Store(1) // gate the first render call
	a.srv.renderImage = hook.render
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()
	base := "http://" + a.apiAddr()

	zero := 0
	req := renderRequest{Volume: "demo", Views: 8, Width: 24, Height: 24, Workers: 1}
	id := submitJob(t, base, jobRequest{Render: &req, CoarseLevel: &zero})
	<-hook.entered

	cancel()
	err = <-done
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck job returned %v, want deadline exceeded", err)
	}
	j, ok := a.srv.jobs.Get(id)
	if !ok {
		t.Fatal("job evicted")
	}
	if j.State() != jobs.StateFailed {
		t.Errorf("stuck job drained to %s, want failed", j.State())
	}
}

// TestSSEDisconnectCancelsJob drops the event stream while the job is
// mid-refine: the watcher hanging up must cancel the kernel, mirroring
// the sync path where a dropped connection aborts the render.
func TestSSEDisconnectCancelsJob(t *testing.T) {
	cfg := testConfig()
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook := newGatedFullRender()
	hook.calls.Store(1)
	a.srv.renderImage = hook.render
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()
	base := "http://" + a.apiAddr()

	zero := 0
	req := renderRequest{Volume: "demo", Views: 8, Width: 24, Height: 24, Workers: 1}
	id := submitJob(t, base, jobRequest{Render: &req, CoarseLevel: &zero})

	sctx, scancel := context.WithCancel(context.Background())
	sreq, _ := http.NewRequestWithContext(sctx, http.MethodGet, base+"/jobs/"+id+"/events", nil)
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	<-hook.entered // job is mid-refine with a live watcher
	scancel()      // watcher hangs up
	sresp.Body.Close()
	waitFor(t, "job cancelled by disconnect", func() bool { return jobState(t, base, id) == "cancelled" })
	waitFor(t, "admission slot freed", func() bool { return len(a.srv.run) == 0 })

	cancel()
	if err := <-done; err != nil {
		t.Errorf("app.run: %v", err)
	}
}

// TestStatusWriterForwardsFlush pins the bugfix: the instrumentation
// wrapper must not hide the underlying http.Flusher, or SSE events sit
// in the server buffer until the handler returns.
func TestStatusWriterForwardsFlush(t *testing.T) {
	var _ http.Flusher = (*statusWriter)(nil) // compile-time-style assertion

	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	fmt.Fprint(sw, "data: x\n\n")
	sw.Flush()
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
	if sw.status() != http.StatusOK {
		t.Errorf("status after flush %d, want 200", sw.status())
	}
	// http.NewResponseController must find the flusher through the
	// wrapper (directly or via Unwrap) without ErrNotSupported.
	rc := http.NewResponseController(sw)
	if err := rc.Flush(); err != nil {
		t.Errorf("ResponseController.Flush: %v", err)
	}
}

// TestRetryAfterDerivedFromBacklog pins the 429 Retry-After header to
// the backlog estimate (queue occupancy × mean latency / slots)
// instead of the old hardcoded 1 second. Each request asks for its own
// view: identical ones would coalesce instead of queueing.
func TestRetryAfterDerivedFromBacklog(t *testing.T) {
	cfg := testConfig()
	cfg.slots, cfg.queueDepth = 1, 1
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook := newBlockingHook()
	a.srv.renderImage = hook.render
	// Seed the latency evidence: one completed request took 4s. With
	// a full queue (2 occupants) and 1 slot, the estimate is 2*4s = 8s.
	a.srv.renderLatency.Observe(4 * time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()

	url := "http://" + a.apiAddr() + "/render"
	req := func(view int) renderRequest {
		return renderRequest{Volume: "demo", View: view, Views: 8, Width: 16, Height: 16, Workers: 1}
	}
	statuses := make(chan int, 2)
	do := func(view int) {
		resp := postJSON(t, url, req(view))
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go do(0) // takes the run slot
	<-hook.entered
	go do(1) // takes the queue slot
	waitFor(t, "queue saturated", func() bool { return len(a.srv.queue) == 2 })

	resp := postJSON(t, url, req(2))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "8" {
		t.Errorf("Retry-After %q, want \"8\" (2 queued x 4s mean / 1 slot)", got)
	}

	close(hook.release)
	for i := 0; i < 2; i++ {
		<-statuses
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("app.run: %v", err)
	}
}

// TestJobValidation covers the /jobs request-surface error paths.
func TestJobValidation(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	base := "http://" + a.apiAddr()
	bad := []jobRequest{
		{},               // no op body at all
		{Op: "render"},   // op without its body
		{Op: "compress"}, // unknown op
		{Priority: "urgent", Render: &renderRequest{Volume: "demo"}},            // bad lane
		{Render: &renderRequest{Volume: "nope", Views: 8}},                      // unknown volume (404 below)
		{CoarseLevel: ptr(9), Render: &renderRequest{Volume: "demo", Views: 8}}, // coarse level out of range
		{Filter: &filterRequest{Src: "demo", Kernel: "median"}},                 // bad kernel
		{Filter: &filterRequest{Src: "demo", SigmaRange: -0.5}},                 // negative sigma_range
	}
	wants := []int{400, 400, 400, 400, 404, 400, 400, 400}
	for i, b := range bad {
		resp := postJSON(t, base+"/jobs", b)
		resp.Body.Close()
		if resp.StatusCode != wants[i] {
			t.Errorf("case %d (%+v): status %d, want %d", i, b, resp.StatusCode, wants[i])
		}
	}
	// Unknown job ID on every /jobs/{id} verb.
	resp, err := http.Get(base + "/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(base + "/jobs/deadbeef/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events of unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestFilterJobMatchesSync runs a filter as a job and checks the
// destination volume appears and a subsequent identical sync /filter
// is answered from the cache without rerunning the kernel.
func TestFilterJobMatchesSync(t *testing.T) {
	cfg := testConfig()
	cfg.cacheBytes = 1 << 20
	a, _, _ := startApp(t, cfg)
	base := "http://" + a.apiAddr()

	freq := filterRequest{Src: "demo", Dst: "demo.j", Kernel: "gaussian", Radius: 1, Workers: 1}
	id := submitJob(t, base, jobRequest{Filter: &freq, Priority: "bulk"})
	waitFor(t, "filter job done", func() bool { return jobState(t, base, id) == "done" })

	// The destination volume is in the store.
	resp, err := http.Get(base + "/volumes")
	if err != nil {
		t.Fatal(err)
	}
	var vols []store.Info
	if err := json.NewDecoder(resp.Body).Decode(&vols); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, v := range vols {
		found = found || v.Name == "demo.j"
	}
	if !found {
		t.Fatal("filter job did not store its destination volume")
	}

	// Sync /filter with identical parameters hits the job's cached
	// response (the store still holds the job's output).
	sresp := postJSON(t, base+"/filter", freq)
	body, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync filter: status %d body %s", sresp.StatusCode, body)
	}
	if out := sresp.Header.Get("X-Cache"); out != "hit" {
		t.Errorf("sync filter after job: X-Cache %q, want hit", out)
	}
}

func ptr[T any](v T) *T { return &v }

// TestMaxCoarseLevel pins the clamp arithmetic: the deepest level keeps
// at least two samples per axis.
func TestMaxCoarseLevel(t *testing.T) {
	cases := []struct {
		nx, ny, nz, want int
	}{
		{2, 2, 2, 0},
		{3, 3, 3, 0},
		{4, 4, 4, 1},
		{16, 16, 16, 3},
		{48, 48, 48, 4},
		{64, 4, 64, 1}, // thinnest axis governs
	}
	for _, c := range cases {
		if got := maxCoarseLevel(c.nx, c.ny, c.nz); got != c.want {
			t.Errorf("maxCoarseLevel(%d,%d,%d) = %d, want %d", c.nx, c.ny, c.nz, got, c.want)
		}
	}
}

// TestJobCoarseLevelClampedToVolume submits a render job whose
// coarse_level passes the request-range check but exceeds the volume's
// deepest meaningful preview level (level 4 of the 16³ demo volume
// would subsample it to a single voxel per axis). The job must run at
// the clamped level and the coarse event must report the effective
// level, not the requested one.
func TestJobCoarseLevelClampedToVolume(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	base := "http://" + a.apiAddr()

	req := renderRequest{Volume: "demo", View: 1, Views: 8, Width: 48, Height: 48, Workers: 2}
	id := submitJob(t, base, jobRequest{CoarseLevel: ptr(4), Render: &req})

	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var coarse frameEvent
	sawCoarse := false
	for {
		ev, err := readSSE(br)
		if err != nil {
			t.Fatalf("SSE stream ended early: %v", err)
		}
		if ev.event == "coarse" {
			sawCoarse = true
			if err := json.Unmarshal(ev.data, &coarse); err != nil {
				t.Fatal(err)
			}
		}
		if ev.event == "failed" {
			t.Fatalf("job failed: %s", ev.data)
		}
		if ev.event == "done" {
			break
		}
	}
	if !sawCoarse {
		t.Fatal("no coarse event (clamp should keep the preview, not drop it)")
	}
	// 16³ volume: deepest level with >= 2 samples per axis is 3.
	if coarse.Level != 3 {
		t.Errorf("coarse level %d, want 3 (requested 4 clamped to the 16³ volume)", coarse.Level)
	}
	if coarse.Width != 16 || coarse.Height != 16 {
		t.Errorf("coarse frame %dx%d, want 16x16 (48>>3 raised to the 16px floor)", coarse.Width, coarse.Height)
	}
}

// jobRefinedFrame follows a job's event stream (replayed from the
// start) to its refined frame and returns the frame bytes.
func jobRefinedFrame(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		ev, err := readSSE(br)
		if err != nil {
			t.Fatalf("job %s: event stream ended before a refined frame: %v", id, err)
		}
		switch ev.event {
		case "refined":
			var fe frameEvent
			if err := json.Unmarshal(ev.data, &fe); err != nil {
				t.Fatal(err)
			}
			frame, err := base64.StdEncoding.DecodeString(fe.Frame)
			if err != nil {
				t.Fatal(err)
			}
			return frame
		case "failed", "cancelled":
			t.Fatalf("job %s %s: %s", id, ev.event, ev.data)
		}
	}
}

// TestJobAndSyncShareOneKernelRun: a render job and a sync /render of
// the same digest run the kernel once, whichever arrives first. The
// leader parks in the kernel; the other must wait on its flight rather
// than render again. At -slots 1 this also pins that the waiter holds
// no admission slot, or the leader could never be admitted.
func TestJobAndSyncShareOneKernelRun(t *testing.T) {
	for _, jobFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("jobFirst=%v", jobFirst), func(t *testing.T) {
			cfg := testConfig()
			cfg.slots = 1
			a, err := newApp(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hook := newBlockingHook()
			var calls atomic.Int32
			a.srv.renderImage = func(ctx context.Context, vol *sfcmem.AnyGrid, cam sfcmem.Camera, tf *sfcmem.TransferFunc, o sfcmem.RenderOptions) (*sfcmem.Image, error) {
				calls.Add(1)
				return hook.render(ctx, vol, cam, tf, o)
			}
			serveBuiltApp(t, a)
			release := sync.OnceFunc(func() { close(hook.release) })
			t.Cleanup(release) // runs before the app's drain, even after a failure
			base := "http://" + a.apiAddr()
			req := renderRequest{Volume: "demo", View: 5, Views: 8, Width: 32, Height: 32, Workers: 1}

			type syncResult struct {
				status int
				xcache string
				body   []byte
			}
			syncDone := make(chan syncResult, 1)
			sync := func() {
				go func() {
					resp := postJSON(t, base+"/render", req)
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					syncDone <- syncResult{resp.StatusCode, resp.Header.Get("X-Cache"), body}
				}()
			}
			zero := 0
			var id string
			if jobFirst {
				id = submitJob(t, base, jobRequest{Render: &req, CoarseLevel: &zero})
				<-hook.entered
				sync()
			} else {
				sync()
				<-hook.entered
				id = submitJob(t, base, jobRequest{Render: &req, CoarseLevel: &zero})
			}
			waitFor(t, "second caller coalesced onto the leader's run", func() bool {
				return a.srv.cache.Stats().Coalesced == 1
			})
			release()

			res := <-syncDone
			if res.status != http.StatusOK {
				t.Fatalf("sync render: status %d", res.status)
			}
			frame := jobRefinedFrame(t, base, id)
			waitFor(t, "job done", func() bool { return jobState(t, base, id) == "done" })
			if got := calls.Load(); got != 1 {
				t.Errorf("kernel ran %d times for one digest, want 1", got)
			}
			want := "miss"
			if jobFirst {
				want = "coalesced"
			}
			if res.xcache != want {
				t.Errorf("sync X-Cache %q, want %q", res.xcache, want)
			}
			if !bytes.Equal(frame, res.body) {
				t.Errorf("job frame (%d bytes) differs from the sync response (%d bytes)", len(frame), len(res.body))
			}
		})
	}
}

// jobEvents follows a job's event stream (replayed from the start) to
// its terminal event and returns every event.
func jobEvents(t *testing.T, base, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var evs []sseEvent
	for {
		ev, err := readSSE(br)
		if err != nil {
			t.Fatalf("job %s: event stream ended after %d events: %v", id, len(evs), err)
		}
		evs = append(evs, ev)
		if jobs.State(ev.event).Terminal() {
			return evs
		}
	}
}

// TestJobOverCachedFrameSkipsPreview: a render job whose frame a sync
// /render already left in the response cache is served that frame — no
// coarse pass, no kernel call, no admission slot. Its events are
// queued, refined, done; the refined frame is the sync body byte for
// byte; and jobs.ttfb observes the refined frame as the job's first.
func TestJobOverCachedFrameSkipsPreview(t *testing.T) {
	a, err := newApp(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	a.srv.renderImage = func(ctx context.Context, vol *sfcmem.AnyGrid, cam sfcmem.Camera, tf *sfcmem.TransferFunc, o sfcmem.RenderOptions) (*sfcmem.Image, error) {
		calls.Add(1)
		return sfcmem.RenderAnyCtx(ctx, vol, cam, tf, o)
	}
	serveBuiltApp(t, a)
	base := "http://" + a.apiAddr()

	req := renderRequest{Volume: "demo", View: 2, Views: 8, Width: 64, Height: 64, Workers: 1}
	resp := postJSON(t, base+"/render", req)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("sync render: status %d, X-Cache %q, want a 200 miss", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	id := submitJob(t, base, jobRequest{Render: &req}) // default coarse_level 2
	var got []string
	var refined frameEvent
	for _, ev := range jobEvents(t, base, id) {
		got = append(got, ev.event)
		if ev.event == "refined" {
			if err := json.Unmarshal(ev.data, &refined); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := []string{"queued", "refined", "done"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("event sequence %v, want %v", got, want)
	}
	frame, err := base64.StdEncoding.DecodeString(refined.Frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, body) {
		t.Errorf("refined frame (%d bytes) differs from the sync body (%d bytes)", len(frame), len(body))
	}
	if refined.ETag != resp.Header.Get("ETag") {
		t.Errorf("refined ETag %q, want the sync response's %q", refined.ETag, resp.Header.Get("ETag"))
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("kernel ran %d times for one served digest, want 1", n)
	}
	if n := a.srv.jobTTFB.Count(); n != 1 {
		t.Errorf("jobs.ttfb count %d, want 1 (the refined frame is the job's first)", n)
	}
	waitFor(t, "job trace in the ring", func() bool {
		for _, tr := range a.srv.hub.Ring().Recent(0) {
			if tr.Route == "job" {
				return true
			}
		}
		return false
	})
	for _, stage := range []string{"admission.slot", "kernel.coarse", "subsample"} {
		if n := spanCount(a, "job", stage); n != 0 {
			t.Errorf("cached job trace has %d %q spans, want none", n, stage)
		}
	}
}

// TestJobCountsOneCacheLookup: a render job counts one response-cache
// lookup, a miss on a frame nothing served and a hit on a served one,
// exactly as a sync /render does.
func TestJobCountsOneCacheLookup(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	base := "http://" + a.apiAddr()
	req := renderRequest{Volume: "demo", View: 3, Views: 8, Width: 32, Height: 32, Workers: 1}
	for i, want := range []struct{ hits, misses uint64 }{{0, 1}, {1, 1}} {
		jobEvents(t, base, submitJob(t, base, jobRequest{Render: &req}))
		if st := a.srv.cache.Stats(); st.Hits != want.hits || st.Misses != want.misses {
			t.Fatalf("after job %d: hits %d misses %d, want %d and %d", i+1, st.Hits, st.Misses, want.hits, want.misses)
		}
	}
	resp := postJSON(t, base+"/render", req)
	resp.Body.Close()
	if st := a.srv.cache.Stats(); resp.Header.Get("X-Cache") != "hit" || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("sync render after the jobs: X-Cache %q, hits %d misses %d, want a hit and 2, 1",
			resp.Header.Get("X-Cache"), st.Hits, st.Misses)
	}
}

// TestJobNeverShedByAdmissionQueue: at -slots 1 -queue 1, one sync
// render parked in the kernel and a second queued behind it fill the
// admission queue. A render job accepted then must still run to done
// once the kernel is released: job passes wait for a run slot and take
// no queue token, so they are never shed with "admission queue full".
func TestJobNeverShedByAdmissionQueue(t *testing.T) {
	cfg := testConfig()
	cfg.slots, cfg.queueDepth = 1, 1
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook := newBlockingHook()
	a.srv.renderImage = hook.render
	serveBuiltApp(t, a)
	release := sync.OnceFunc(func() { close(hook.release) })
	t.Cleanup(release) // runs before the app's drain, even after a failure
	base := "http://" + a.apiAddr()

	statuses := make(chan int, 2)
	render := func(view int) {
		go func() {
			resp := postJSON(t, base+"/render", renderRequest{Volume: "demo", View: view, Views: 8, Width: 16, Height: 16, Workers: 1})
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	render(0) // takes the run slot, parks in the hook
	<-hook.entered
	render(1) // takes the last queue token, waits for the run slot
	waitFor(t, "admission queue full", func() bool { return len(a.srv.queue) == 2 })

	req := renderRequest{Volume: "demo", View: 2, Views: 8, Width: 32, Height: 32, Workers: 1}
	id := submitJob(t, base, jobRequest{Render: &req})
	waitFor(t, "job started behind the parked kernel", func() bool { return jobState(t, base, id) != "queued" })
	release()

	for i := 0; i < 2; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("sync render finished with %d, want 200", st)
		}
	}
	evs := jobEvents(t, base, id)
	if last := evs[len(evs)-1]; last.event != "done" {
		t.Fatalf("accepted job ended %s: %s", last.event, last.data)
	}
	if got := counterTotal(t, "http://"+a.opsAddr(), "admission.rejected"); got != 0 {
		t.Errorf("admission.rejected = %d, want 0: nothing here exceeded the queue", got)
	}
}
