package main

// The async jobs API: POST /jobs enqueues a render or filter through
// the internal/jobs batching scheduler, GET /jobs/{id} reports status,
// GET /jobs/{id}/events streams progressive results over SSE (for
// render jobs: a coarse preview from the multires subsample, then the
// full-resolution refinement), and DELETE /jobs/{id} cancels.
//
// Jobs compatible on (volume, generation, dtype, coarse level) batch
// together: the batch fetches the prepared volume (prepared.go, shared
// with sync renders) and builds the coarse subsample once, and every
// job in it reuses them. A render job's final frame is
// stored in the response cache under the same digest a synchronous
// /render would compute, so the job warms the cache for everyone.

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
	"sfcmem/internal/metrics"
	"sfcmem/internal/obs"
	"sfcmem/internal/rcache"
)

// statusClientClosedRequest is nginx's non-standard code for a request
// the client abandoned; job traces use it to mark cancellations apart
// from failures in /ops/trace/recent.
const statusClientClosedRequest = 499

// enableJobs wires the batching job manager and publishes the jobs.*
// metrics family: lifecycle counters, queue-depth gauges, and the
// time-to-first-coarse-frame histogram.
func (s *server) enableJobs(cfg jobs.Config) {
	s.jobs = jobs.New(cfg)
	stat := func(f func(jobs.Stats) any) metrics.GaugeFunc {
		return func() any { return f(s.jobs.Stats()) }
	}
	s.reg.Register("jobs.submitted", stat(func(st jobs.Stats) any { return st.Submitted }))
	s.reg.Register("jobs.done", stat(func(st jobs.Stats) any { return st.Done }))
	s.reg.Register("jobs.failed", stat(func(st jobs.Stats) any { return st.Failed }))
	s.reg.Register("jobs.cancelled", stat(func(st jobs.Stats) any { return st.Cancelled }))
	s.reg.Register("jobs.batches", stat(func(st jobs.Stats) any { return st.Batches }))
	s.reg.Register("jobs.pending", stat(func(st jobs.Stats) any { return st.Pending }))
	s.reg.Register("jobs.ready", stat(func(st jobs.Stats) any { return st.Ready }))
	s.reg.Register("jobs.running", stat(func(st jobs.Stats) any { return st.Running }))
	s.jobTTFB = s.reg.Histogram("jobs.ttfb")
}

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
	if s.jobs == nil {
		http.Error(w, "jobs disabled", http.StatusServiceUnavailable)
		return
	}
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
	var spec jobs.Spec
	var herr *httpErr
	switch op {
	case "render":
		if req.Render == nil {
			http.Error(w, `"render" body required for a render job`, http.StatusBadRequest)
			return
		}
		spec, herr = s.renderJobSpec(*req.Render, lane, coarseLevel, r.Header)
	case "filter":
		if req.Filter == nil {
			http.Error(w, `"filter" body required for a filter job`, http.StatusBadRequest)
			return
		}
		spec, herr = s.filterJobSpec(*req.Filter, lane, r.Header)
	default:
		http.Error(w, fmt.Sprintf("unknown op %q (want render or filter)", op), http.StatusBadRequest)
		return
	}
	if herr != nil {
		http.Error(w, herr.msg, herr.code)
		return
	}
	j, err := s.jobs.Submit(spec)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, jobs.ErrDraining) {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/jobs/"+j.ID)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // headers are out
		"id":         j.ID,
		"state":      j.State(),
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

// renderJobSpec builds the scheduler spec for a render job. Batch
// compatibility covers exactly what Setup resolves — the volume's
// contents (name + generation), the element type of the run, and the
// coarse level — so framing (view, size, format) varies freely within
// a batch while the coarse subsample is shared. The full pass shares
// the prepared volume through the store, as sync renders do.
//
// The requested coarse level is clamped to the volume's deepest
// meaningful level before it reaches the batch key or the subsample:
// a level-4 preview of an 8³ volume would collapse axes to a point.
// The coarse event reports the effective (clamped) level, so clients
// see the level that actually rendered.
func (s *server) renderJobSpec(req renderRequest, lane jobs.Lane, coarseLevel int, hdr http.Header) (jobs.Spec, *httpErr) {
	plan, herr := s.planRender(req)
	if herr != nil {
		return jobs.Spec{}, herr
	}
	if lmax := maxCoarseLevel(plan.vol.Grid.Dims()); coarseLevel > lmax {
		coarseLevel = lmax
	}
	// Probe the stored layout spec at the full extents so a corrupt
	// string fails the request, not the job. The Setup closure re-parses
	// at the coarse dims; a spec valid at the full extents is valid at
	// every subsampled size (smaller extents need fewer bits, and a bit
	// spec's surplus occurrences are inert).
	fnx, fny, fnz := plan.vol.Grid.Dims()
	if _, err := sfcmem.ParseLayoutSpec(plan.vol.Layout, fnx, fny, fnz); err != nil {
		// Stored layouts were parsed at volume creation; this is a bug,
		// not a client error.
		return jobs.Spec{}, &httpErr{http.StatusInternalServerError, err.Error()}
	}
	layoutSpec := plan.vol.Layout
	jt, _ := s.hub.Start(context.Background(), "job", hdr)
	return jobs.Spec{
		BatchKey: digest("render", plan.vol.Name, plan.vol.Gen, plan.dt, coarseLevel),
		Lane:     lane,
		Setup: func(ctx context.Context) (any, error) {
			if coarseLevel == 0 {
				return nil, nil // no preview: nothing to share
			}
			g, err := s.converted(nil, plan.vol, plan.dt)
			if err != nil {
				return nil, err
			}
			return sfcmem.SubsampleAny(g, coarseLevel, func(nx, ny, nz int) sfcmem.Layout {
				l, err := sfcmem.ParseLayoutSpec(layoutSpec, nx, ny, nz)
				if err != nil {
					// Unreachable: the spec parsed at the full extents
					// above, and shrinking extents never invalidates it.
					panic(fmt.Sprintf("layout spec %q invalid at %dx%dx%d: %v", layoutSpec, nx, ny, nz, err))
				}
				return l
			})
		},
		Run: func(ctx context.Context, shared any, j *jobs.Job) error {
			coarse, _ := shared.(*sfcmem.AnyGrid) // nil at coarse level 0
			return s.runRenderJob(obs.With(ctx, jt), jt, coarse, plan, coarseLevel, j)
		},
		Done: s.jobDone(jt),
	}, nil
}

// runRenderJob is a render job's kernel path, executed on a scheduler
// runner: the coarse preview (subsampled volume at reduced resolution,
// under its own admission slot), then the full-resolution pass through
// the response cache under the digest a sync /render computes. The
// full pass is renderOnce, so a job and a sync request for one digest
// run the kernel once, and a job over an already-served digest is a
// cache hit.
func (s *server) runRenderJob(ctx context.Context, jt *obs.Trace, coarse *sfcmem.AnyGrid, plan *renderPlan, coarseLevel int, j *jobs.Job) error {
	s.recordQueueSpans(jt, j)
	req := plan.req
	if coarse != nil {
		cw, ch := max(req.Width>>coarseLevel, 16), max(req.Height>>coarseLevel, 16)
		release, err := s.admit(ctx)
		if err != nil {
			return err
		}
		cv, err := s.rasterize(ctx, jt, coarse, nil, req, cw, ch, "kernel.coarse")
		release()
		if err != nil {
			return err
		}
		s.jobTTFB.Observe(time.Since(j.Times().Submitted))
		j.Emit("coarse", frameEvent{
			Level: coarseLevel, Width: cw, Height: ch,
			ContentType: cv.ContentType,
			Frame:       base64.StdEncoding.EncodeToString(cv.Body),
		})
	}
	v, _, err := s.cached(ctx, jt, plan.key, s.renderOnce(jt, plan))
	if err != nil {
		return err
	}
	j.SetResult(&v)
	j.Emit("refined", frameEvent{
		Level: 0, Width: req.Width, Height: req.Height,
		ContentType: v.ContentType,
		ETag:        plan.etag,
		Frame:       base64.StdEncoding.EncodeToString(v.Body),
	})
	return nil
}

// filterJobSpec builds the scheduler spec for a filter job. It runs
// runFilter, the sync /filter path: the result volume lands in the
// store and the response body in the cache exactly as a sync /filter
// would leave them, and a job and a sync request for one digest run
// the kernel once. The source's converted view is shared through the
// store, so the batch needs no Setup.
func (s *server) filterJobSpec(req filterRequest, lane jobs.Lane, hdr http.Header) (jobs.Spec, *httpErr) {
	plan, herr := s.planFilter(req)
	if herr != nil {
		return jobs.Spec{}, herr
	}
	jt, _ := s.hub.Start(context.Background(), "job", hdr)
	return jobs.Spec{
		BatchKey: digest("filter", plan.src.Name, plan.src.Gen, plan.dt),
		Lane:     lane,
		Run: func(ctx context.Context, _ any, j *jobs.Job) error {
			ctx = obs.With(ctx, jt)
			s.recordQueueSpans(jt, j)
			v, _, err := s.runFilter(ctx, jt, plan)
			if err != nil {
				return err
			}
			j.SetResult(&v)
			j.Emit("result", json.RawMessage(bytes.TrimSpace(v.Body)))
			return nil
		},
		Done: s.jobDone(jt),
	}, nil
}

// recordQueueSpans backfills the job's scheduler phases into its
// trace. Trace.Stage cannot be used here — submit, seal, and run
// happen on three goroutines — so the spans are recorded retroactively
// from the lifecycle timestamps via StageAt, which is safe from any
// goroutine.
func (s *server) recordQueueSpans(jt *obs.Trace, j *jobs.Job) {
	tm := j.Times()
	if !tm.Sealed.IsZero() {
		jt.StageAt("job.queued", tm.Submitted, tm.Sealed.Sub(tm.Submitted))
		if !tm.Started.IsZero() {
			jt.StageAt("job.batched", tm.Sealed, tm.Started.Sub(tm.Sealed))
		}
	}
}

// jobDone closes out a job's trace when it terminates (from whichever
// goroutine drove the terminal transition), so queued/batched/coarse/
// refine phases of every job show up in /ops/trace/recent alongside
// synchronous requests.
func (s *server) jobDone(jt *obs.Trace) func(*jobs.Job) {
	return func(j *jobs.Job) {
		var size int64
		if v, ok := j.Result().(*rcache.Value); ok {
			size = int64(len(v.Body))
		}
		status := http.StatusOK
		switch j.State() {
		case jobs.StateFailed:
			status = http.StatusInternalServerError
		case jobs.StateCancelled:
			status = statusClientClosedRequest
		}
		s.hub.Finish(jt, status, size, "")
	}
}

func (s *server) getJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	if s.jobs == nil {
		http.Error(w, "jobs disabled", http.StatusServiceUnavailable)
		return nil, false
	}
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
