package main

// The async jobs API: POST /jobs enqueues a render or filter on one of
// the internal/jobs priority lanes, GET /jobs/{id} reports status,
// GET /jobs/{id}/events streams progressive results over SSE (for
// render jobs: a coarse preview from the multires subsample, then the
// full-resolution refinement), and DELETE /jobs/{id} cancels.
//
// Jobs run as they arrive. What jobs of one volume generation have in
// common — the converted view, the prepared volume and the coarse
// subsample — comes from the store's per-generation derived values
// (prepared.go), shared with sync requests and built once. A render
// job's final frame is stored in the response cache under the same
// digest a synchronous /render would compute, so the job warms the
// cache for everyone.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"sfcmem"
	"sfcmem/internal/jobs"
	"sfcmem/internal/obs"
	"sfcmem/internal/rcache"
)

// statusClientClosedRequest is nginx's non-standard code for a request
// the client abandoned; job traces use it to mark cancellations apart
// from failures in /ops/trace/recent.
const statusClientClosedRequest = 499

// jobRequest is the POST /jobs body: exactly one operation (render or
// filter) plus job-level scheduling fields.
type jobRequest struct {
	// Op is "render" or "filter"; defaults to whichever operation body
	// is present.
	Op string `json:"op"`
	// Priority selects the scheduling lane: "interactive" (default)
	// preempts "bulk" at every dispatch decision.
	Priority string `json:"priority"`
	// CoarseLevel is the multiresolution level of a render job's
	// preview pass: the volume is subsampled by 2^level per axis and
	// rendered at width>>level × height>>level before the full-
	// resolution refinement. 0 disables the preview; default 2.
	CoarseLevel *int `json:"coarse_level"`

	Render *renderRequest `json:"render"`
	Filter *filterRequest `json:"filter"`
}

// frameEvent is the SSE payload of a render job's "coarse" and
// "refined" events: the encoded frame inline (base64) plus enough
// metadata to display it without another round trip.
type frameEvent struct {
	Level       int    `json:"level"` // subsample level; 0 = full resolution
	Width       int    `json:"width"`
	Height      int    `json:"height"`
	ContentType string `json:"content_type"`
	ETag        string `json:"etag,omitempty"` // refined only: the digest a sync /render would hit
	Frame       string `json:"frame"`          // base64 of the encoded frame
}

func (s *server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	lane, err := jobs.ParseLane(req.Priority)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	coarseLevel := 2
	if req.CoarseLevel != nil {
		coarseLevel = *req.CoarseLevel
	}
	if coarseLevel < 0 || coarseLevel > 4 {
		http.Error(w, fmt.Sprintf("coarse_level %d out of range [0,4]", coarseLevel), http.StatusBadRequest)
		return
	}
	op := req.Op
	if op == "" {
		switch {
		case req.Render != nil:
			op = "render"
		case req.Filter != nil:
			op = "filter"
		}
	}
	var run jobRun
	var herr *httpErr
	switch op {
	case "render":
		if req.Render == nil {
			http.Error(w, `"render" body required for a render job`, http.StatusBadRequest)
			return
		}
		run, herr = s.renderJob(*req.Render, coarseLevel)
	case "filter":
		if req.Filter == nil {
			http.Error(w, `"filter" body required for a filter job`, http.StatusBadRequest)
			return
		}
		run, herr = s.filterJob(*req.Filter)
	default:
		http.Error(w, fmt.Sprintf("unknown op %q (want render or filter)", op), http.StatusBadRequest)
		return
	}
	if herr != nil {
		http.Error(w, herr.msg, herr.code)
		return
	}
	s.submit(w, r, lane, run)
}

// jobRun is a validated job's work, run on a scheduler runner under the
// job's trace jt, which ctx carries too.
type jobRun func(ctx context.Context, jt *obs.Trace, j *jobs.Job) error

// submit starts the job's trace, hands the job to the manager on lane
// and answers 202 with its Location and {id, state, events_url}; 503
// while draining, 500 on any other refusal, either of which also
// closes the trace. The state is the one at acceptance, queued: a
// runner may already have started the job by the time the body is
// written.
func (s *server) submit(w http.ResponseWriter, r *http.Request, lane jobs.Lane, run jobRun) {
	jt, _ := s.hub.Start(context.Background(), "job", r.Header)
	j, err := s.jobs.Submit(jobs.Spec{
		Lane: lane,
		Run: func(ctx context.Context, j *jobs.Job) error {
			s.recordQueueSpan(jt, j)
			return run(obs.With(ctx, jt), jt, j)
		},
		Done: s.jobDone(jt),
	})
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, jobs.ErrDraining) {
			code = http.StatusServiceUnavailable
		}
		s.hub.Finish(jt, code, 0, "")
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/jobs/"+j.ID)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // headers are out
		"id":         j.ID,
		"state":      jobs.StateQueued,
		"events_url": "/jobs/" + j.ID + "/events",
	})
}

// maxCoarseLevel is the volume's deepest meaningful preview level: the
// largest L whose 2^L-per-axis subsample still has at least two samples
// on every axis. Below two samples an axis degenerates to a single
// plane and the "preview" stops resembling the volume.
func maxCoarseLevel(nx, ny, nz int) int {
	level := 0
	for m := min(nx, ny, nz); m>>(level+1) >= 2; level++ {
	}
	return level
}

// renderJob validates a render job and returns its run, runRenderJob.
// The full pass shares the prepared volume through the store, as sync
// renders do, and the preview pass shares the coarse subsample the same
// way.
//
// The requested coarse level is clamped to the volume's deepest
// meaningful level before it reaches the subsample: a level-4 preview
// of an 8³ volume would collapse axes to a point. The coarse event
// reports the effective (clamped) level, so clients see the level that
// actually rendered.
func (s *server) renderJob(req renderRequest, coarseLevel int) (jobRun, *httpErr) {
	plan, herr := s.planRender(req)
	if herr != nil {
		return nil, herr
	}
	if lmax := maxCoarseLevel(plan.vol.Grid.Dims()); coarseLevel > lmax {
		coarseLevel = lmax
	}
	// Probe the stored layout spec at the full extents so a corrupt
	// string fails the request, not the job: coarse re-parses it at the
	// subsampled dims, and a spec valid at the full extents is valid at
	// every subsampled size (smaller extents need fewer bits, and a bit
	// spec's surplus occurrences are inert).
	fnx, fny, fnz := plan.vol.Grid.Dims()
	if _, err := sfcmem.ParseLayoutSpec(plan.vol.Layout, fnx, fny, fnz); err != nil {
		// Stored layouts were parsed at volume creation; this is a bug,
		// not a client error.
		return nil, &httpErr{http.StatusInternalServerError, err.Error()}
	}
	return func(ctx context.Context, jt *obs.Trace, j *jobs.Job) error {
		return s.runRenderJob(ctx, jt, plan, coarseLevel, j)
	}, nil
}

// runRenderJob is a render job's kernel path, executed on a scheduler
// runner. A frame already in the response cache is the whole job: it
// is emitted as the refined frame, with no preview and no admission
// slot. Otherwise the job renders the coarse preview (the volume's
// shared subsample at reduced resolution; skipped at level 0). Either
// way the frame comes through cached under the digest a sync /render
// computes, so a job and a sync request for one digest run the kernel
// once, and the job counts one cache hit or miss like a sync request.
// Both passes wait for a run slot through admitJob, never for a queue
// token. jobs.ttfb observes whichever frame comes first.
func (s *server) runRenderJob(ctx context.Context, jt *obs.Trace, plan *renderPlan, coarseLevel int, j *jobs.Job) error {
	hit := s.cache.Has(plan.key)
	preview := !hit && coarseLevel > 0
	if preview {
		if err := s.renderPreview(ctx, jt, plan, coarseLevel, j); err != nil {
			return err
		}
	}
	v, _, err := s.cached(ctx, jt, &plan.kernelPlan, s.admitJob)
	if err != nil {
		return err
	}
	if !preview { // the refined frame is the job's first
		s.jobTTFB.Observe(time.Since(j.Times().Submitted))
	}
	req := plan.req
	j.SetResult(&v)
	j.Emit("refined", frameEvent{
		Level: 0, Width: req.Width, Height: req.Height,
		ContentType: v.ContentType,
		ETag:        plan.etag,
		Frame:       base64.StdEncoding.EncodeToString(v.Body),
	})
	return nil
}

// renderPreview renders and emits a render job's coarse frame: the
// volume's subsample at level, raycast at width>>level × height>>level
// (at least 16 pixels a side), and observes it as the job's first
// frame.
func (s *server) renderPreview(ctx context.Context, jt *obs.Trace, plan *renderPlan, level int, j *jobs.Job) error {
	g, err := s.coarse(jt, plan.vol, plan.dt, level)
	if err != nil {
		return err
	}
	req := plan.req
	cw, ch := max(req.Width>>level, 16), max(req.Height>>level, 16)
	release, err := s.admitJob(ctx)
	if err != nil {
		return err
	}
	cv, err := s.rasterize(ctx, jt, g, nil, req, cw, ch, "kernel.coarse")
	release()
	if err != nil {
		return err
	}
	s.jobTTFB.Observe(time.Since(j.Times().Submitted))
	j.Emit("coarse", frameEvent{
		Level: level, Width: cw, Height: ch,
		ContentType: cv.ContentType,
		Frame:       base64.StdEncoding.EncodeToString(cv.Body),
	})
	return nil
}

// filterJob validates a filter job and returns its run: the plan
// through cached, as sync /filter runs it, so the result volume lands
// in the store and the response body in the cache exactly as a sync
// /filter would leave them, and a job and a sync request for one digest
// run the kernel once. The source's converted view is shared through
// the store.
func (s *server) filterJob(req filterRequest) (jobRun, *httpErr) {
	plan, herr := s.planFilter(req)
	if herr != nil {
		return nil, herr
	}
	return func(ctx context.Context, jt *obs.Trace, j *jobs.Job) error {
		v, _, err := s.cached(ctx, jt, &plan.kernelPlan, s.admitJob)
		if err != nil {
			return err
		}
		j.SetResult(&v)
		j.Emit("result", json.RawMessage(bytes.TrimSpace(v.Body)))
		return nil
	}, nil
}

// recordQueueSpan backfills the job's wait for a runner (submitted →
// started) into its trace as a "job.queued" span. Trace.Stage cannot be
// used here — submit and run happen on two goroutines — so the span is
// recorded retroactively from the lifecycle timestamps via StageAt,
// which is safe from any goroutine. Called by Run, once started.
func (s *server) recordQueueSpan(jt *obs.Trace, j *jobs.Job) {
	tm := j.Times()
	jt.StageAt("job.queued", tm.Submitted, tm.Started.Sub(tm.Submitted))
}

// jobDone closes out a job's trace as it terminates (from whichever
// goroutine drove the terminal transition), so the queued, coarse and
// refine phases of every job show up in /ops/trace/recent alongside
// synchronous requests. The jobs manager runs it before the job's
// terminal state is visible: a client that sees the job end finds its
// trace, not just the trace of the request that submitted it, which
// carries the same request ID.
func (s *server) jobDone(jt *obs.Trace) func(*jobs.Job, jobs.State) {
	return func(j *jobs.Job, st jobs.State) {
		var size int64
		if v, ok := j.Result().(*rcache.Value); ok {
			size = int64(len(v.Body))
		}
		status := http.StatusOK
		switch st {
		case jobs.StateFailed:
			status = http.StatusInternalServerError
		case jobs.StateCancelled:
			status = statusClientClosedRequest
		}
		s.hub.Finish(jt, status, size, "")
	}
}

func (s *server) getJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, fmt.Sprintf("unknown job %q", r.PathValue("id")), http.StatusNotFound)
		return nil, false
	}
	return j, true
}

func (s *server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.Snapshot()) //nolint:errcheck
}

// handleCancelJob cancels a job. Cancellation of a running job is
// asynchronous — the kernel aborts at its next context check — so the
// reported state may still be "running"; watch /events or poll for the
// terminal "cancelled".
func (s *server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	j.Cancel()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.Snapshot()) //nolint:errcheck
}

// handleJobEvents streams a job's event log as Server-Sent Events:
// everything published so far is replayed (reconnects see the full
// history), then live events until the terminal one. A watcher hanging
// up before the job finishes cancels it — the SSE stream is the async
// analogue of the sync connection, where a dropped client cancels the
// kernel mid-flight.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	past, ch, unsub := j.Subscribe()
	defer unsub()
	// write emits one SSE frame and reports whether the stream should
	// continue: it ends at the terminal event (the last ever published)
	// or when the client is gone (flush fails).
	write := func(ev jobs.Event) bool {
		fmt.Fprintf(w, "id: %d\nevent: %s\n", ev.Seq, ev.Type)
		data := []byte("{}")
		if ev.Data != nil {
			data = bytes.TrimSpace(ev.Data)
		}
		// JSON can't contain raw newlines, but don't rely on it: any
		// line break would desync the SSE framing.
		for _, line := range bytes.Split(data, []byte("\n")) {
			fmt.Fprintf(w, "data: %s\n", line)
		}
		fmt.Fprint(w, "\n")
		if err := rc.Flush(); err != nil {
			return false
		}
		return !jobs.State(ev.Type).Terminal()
	}
	for _, ev := range past {
		if !write(ev) {
			return
		}
	}
	for {
		select {
		case ev := <-ch:
			if !write(ev) {
				return
			}
		case <-r.Context().Done():
			j.Cancel()
			return
		}
	}
}
