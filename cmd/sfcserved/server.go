package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sfcmem"
	"sfcmem/internal/jobs"
	"sfcmem/internal/metrics"
	"sfcmem/internal/obs"
	"sfcmem/internal/rcache"
	"sfcmem/internal/store"
)

// server holds the request-service state: the volume store, the metrics
// registry, the two-stage admission gate, the response cache and the
// job manager.
//
// Admission works in two stages so load sheds at the door instead of
// piling up in goroutines. queue has capacity slots+depth and is taken
// with a non-blocking send: failure means the service is saturated past
// its queueing allowance and the request is refused with 429 before any
// kernel work. run has capacity slots and is taken with a blocking send
// racing the request's deadline: holding it is the right to occupy
// kernel workers. A request that times out while queued has consumed
// nothing but its queue token. Jobs take only the run slot (admitJob):
// they were accepted with 202 and already hold one of slots runners.
type server struct {
	store store.VolumeStore
	reg   *metrics.Registry

	queue chan struct{}
	run   chan struct{}

	defaultDeadline time.Duration
	maxDeadline     time.Duration
	draining        atomic.Bool
	// ready flips to true once the volume store is populated and the
	// service is willing to take traffic; /readyz reports 503 until then
	// and again once draining starts. /healthz stays 200 throughout —
	// liveness and routability are separate questions.
	ready atomic.Bool

	// renderImage is the kernel invocation behind POST /render,
	// replaceable in tests to make admission behaviour deterministic.
	renderImage func(ctx context.Context, vol *sfcmem.AnyGrid, cam sfcmem.Camera, tf *sfcmem.TransferFunc, o sfcmem.RenderOptions) (*sfcmem.Image, error)

	// cache is the content-addressed response cache with single-flight
	// coalescing (-cache-bytes). Every /render and /filter response and
	// every render or filter job result goes through it (see cached).
	cache *rcache.Cache
	// nonce scopes cache digests (and therefore ETags) to this process;
	// see bootNonce.
	nonce string

	// jobs is the async job subsystem behind /jobs and tuning: two
	// priority lanes, one runner per admission slot, progressive SSE
	// delivery.
	jobs *jobs.Manager
	// jobTTFB observes submit-to-first-frame latency: the coarse preview,
	// or the refined frame of a job that has none (DESIGN.md §12).
	jobTTFB *metrics.Histogram

	// hub is the request-observability layer: per-request traces,
	// access logs, the completed-trace ring, and in-flight inspection.
	// Nil (-obs-off) disables all of it; every touch point is nil-safe.
	hub *obs.Hub
	// routes holds the per-route RED instrumentation (status-class
	// counters + whole-request latency), keyed by route name.
	routes map[string]*routeStats

	// render.prepared.* (prepared.go): prepared-volume builds and
	// reuses.
	preparedBuilds *metrics.Counter
	preparedHits   *metrics.Counter

	renderReqs    *metrics.Counter
	filterReqs    *metrics.Counter
	rejected      *metrics.Counter
	deadlineMiss  *metrics.Counter
	renderLatency *metrics.Histogram
	filterLatency *metrics.Histogram

	// tune.* family (see tune_api.go): request count, applied
	// re-layouts, searches that beat Z order, search latency.
	tuneReqs     *metrics.Counter
	tuneApplied  *metrics.Counter
	tuneImproved *metrics.Counter
	tuneLatency  *metrics.Histogram
}

// newServer builds the request server over vols with cfg's admission
// gate, deadlines and cache budget, and starts its job manager with one
// runner per admission slot: each running job holds one run slot for
// its kernel passes, so more runners than slots would only park jobs in
// admitJob. The caller drains s.jobs exactly once (app.shutdown does).
func newServer(vols store.VolumeStore, reg *metrics.Registry, cfg config) *server {
	s := &server{
		store:           vols,
		reg:             reg,
		queue:           make(chan struct{}, cfg.slots+cfg.queueDepth),
		run:             make(chan struct{}, cfg.slots),
		defaultDeadline: cfg.defaultDeadline,
		maxDeadline:     cfg.maxDeadline,
		renderImage:     sfcmem.RenderAnyCtx,
		cache:           rcache.New(cfg.cacheBytes),
		nonce:           bootNonce(),
		jobs:            jobs.New(jobs.Config{Runners: cfg.slots}),
		jobTTFB:         reg.Histogram("jobs.ttfb"),
		preparedBuilds:  reg.Counter("render.prepared.builds", 1),
		preparedHits:    reg.Counter("render.prepared.hits", 1),
		renderReqs:      reg.Counter("render.requests", 1),
		filterReqs:      reg.Counter("filter.requests", 1),
		rejected:        reg.Counter("admission.rejected", 1),
		deadlineMiss:    reg.Counter("deadline.exceeded", 1),
		renderLatency:   reg.Histogram("render.latency"),
		filterLatency:   reg.Histogram("filter.latency"),
		tuneReqs:        reg.Counter("tune.requests", 1),
		tuneApplied:     reg.Counter("tune.applied", 1),
		tuneImproved:    reg.Counter("tune.improved", 1),
		tuneLatency:     reg.Histogram("tune.latency"),
	}
	// Per-route RED families. admission.rejected/deadline.exceeded stay
	// registered for compatibility; the status-class counters supersede
	// them as the failure signal (a 429 is a render.4xx too).
	s.routes = map[string]*routeStats{
		"render":  newRouteStats(reg, "render"),
		"filter":  newRouteStats(reg, "filter"),
		"volumes": newRouteStats(reg, "volumes"),
		"jobs":    newRouteStats(reg, "jobs"),
	}
	reg.Register("admission.queued", metrics.GaugeFunc(func() any { return len(s.queue) }))
	reg.Register("admission.running", metrics.GaugeFunc(func() any { return len(s.run) }))
	reg.Register("build.info", metrics.Info(versionInfo()))
	cacheStat := func(f func(rcache.Stats) any) metrics.GaugeFunc {
		return func() any { return f(s.cache.Stats()) }
	}
	reg.Register("cache.hits", cacheStat(func(st rcache.Stats) any { return st.Hits }))
	reg.Register("cache.misses", cacheStat(func(st rcache.Stats) any { return st.Misses }))
	reg.Register("cache.evictions", cacheStat(func(st rcache.Stats) any { return st.Evictions }))
	reg.Register("cache.coalesced", cacheStat(func(st rcache.Stats) any { return st.Coalesced }))
	reg.Register("cache.resident_bytes", cacheStat(func(st rcache.Stats) any { return st.ResidentBytes }))
	reg.Register("cache.entries", cacheStat(func(st rcache.Stats) any { return st.Entries }))
	reg.Register("cache.budget_bytes", cacheStat(func(st rcache.Stats) any { return st.BudgetBytes }))
	// jobs.batches keeps its name from when runners dispatched batches of
	// jobs; it counts runner dispatches, one per job that started.
	jobStat := func(f func(jobs.Stats) any) metrics.GaugeFunc {
		return func() any { return f(s.jobs.Stats()) }
	}
	reg.Register("jobs.submitted", jobStat(func(st jobs.Stats) any { return st.Submitted }))
	reg.Register("jobs.done", jobStat(func(st jobs.Stats) any { return st.Done }))
	reg.Register("jobs.failed", jobStat(func(st jobs.Stats) any { return st.Failed }))
	reg.Register("jobs.cancelled", jobStat(func(st jobs.Stats) any { return st.Cancelled }))
	reg.Register("jobs.batches", jobStat(func(st jobs.Stats) any { return st.Dispatched }))
	reg.Register("jobs.pending", jobStat(func(st jobs.Stats) any { return st.Pending }))
	reg.Register("jobs.running", jobStat(func(st jobs.Stats) any { return st.Running }))
	return s
}

// digest hashes the canonical form of a request into the cache key /
// strong ETag. Every field that can change the response bytes must be
// present; pure execution knobs (workers, deadline) must not be, or
// identical work would miss. The generation ties the digest to the
// volume's current contents. Each part is written length-prefixed
// (netstring style): volume names are client-chosen, so a separator
// character inside a value must not be able to forge a field boundary
// and collide two distinct requests onto one key.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		s := fmt.Sprint(p)
		fmt.Fprintf(h, "%d:%s,", len(s), s) //nolint:errcheck // hash.Hash.Write never fails
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bootNonce returns a random per-process value mixed into every cache
// digest. Without -data-dir, store generations restart at 1 on every
// boot, so without the nonce an ETag minted by a previous process
// (same volume name and generation, but a different -volume
// dataset/size, or a /filter dst that this process never produced)
// would validate a 304 against different bytes. With -data-dir the
// persisted manifests carry generations across restarts, but -volume
// specs still re-synthesize at boot, so the nonce stays: ETags are
// process-scoped and the persisted generation floor is what keeps
// in-process DELETE/re-create sequences honest.
func bootNonce() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("sfcserved: boot nonce: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// etagFor wraps a digest as a strong entity tag.
func etagFor(d string) string { return `"` + d + `"` }

// etagMatches reports whether an If-None-Match header value matches
// etag: either the wildcard or a listed tag. Weak-comparison prefixes
// are tolerated on the client side (W/"x" matches "x"); the tags we
// mint are strong.
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || part == etag || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// serveValue writes a computed-or-cached response value with its
// entity tag and cache outcome.
func serveValue(w http.ResponseWriter, v rcache.Value, etag string, out rcache.Outcome) {
	w.Header().Set("Content-Type", v.ContentType)
	for k, val := range v.Meta {
		w.Header().Set(k, val)
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Cache", out.String())
	w.Write(v.Body) //nolint:errcheck // headers are out; nothing to report to
}

// mux routes the request-service API (the ops endpoints live on their
// own mux; see newApp). Kernel and store routes go through instrument;
// the probes and /version stay bare — scraping them every second must
// not churn the trace ring or the access log.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("POST /render", s.instrument("render", kernelHandler(s, s.renderReqs, s.planRender)))
	m.HandleFunc("POST /filter", s.instrument("filter", kernelHandler(s, s.filterReqs, s.planFilter)))
	m.HandleFunc("GET /volumes", s.instrument("volumes", s.handleListVolumes))
	m.HandleFunc("POST /volumes", s.instrument("volumes", s.handleCreateVolume))
	m.HandleFunc("PUT /volumes/{name}", s.instrument("volumes", s.handleUploadVolume))
	m.HandleFunc("DELETE /volumes/{name}", s.instrument("volumes", s.handleDeleteVolume))
	m.HandleFunc("POST /volumes/{name}/tune", s.instrument("volumes", s.handleTuneVolume))
	m.HandleFunc("POST /jobs", s.instrument("jobs", s.handleCreateJob))
	m.HandleFunc("GET /jobs/{id}", s.instrument("jobs", s.handleGetJob))
	m.HandleFunc("GET /jobs/{id}/events", s.instrument("jobs", s.handleJobEvents))
	m.HandleFunc("DELETE /jobs/{id}", s.instrument("jobs", s.handleCancelJob))
	m.HandleFunc("GET /version", s.handleVersion)
	m.HandleFunc("GET /healthz", s.handleHealthz)
	m.HandleFunc("GET /readyz", s.handleReadyz)
	return m
}

// errBusy reports an admission-queue overflow.
var errBusy = errors.New("admission queue full")

// admitFunc is an admission gate: on success the caller holds a run
// slot and must invoke the returned release.
type admitFunc func(ctx context.Context) (release func(), err error)

// admit is the HTTP requests' two-stage gate. errBusy means shed the
// request; a context error means the deadline expired while queued.
// Each stage of the gate is a trace span — admission.queue is the
// (non-blocking) queue-token grab, admission.slot the wait for the
// right to occupy kernel workers — so a 504 is attributable to
// queueing, not kernels.
func (s *server) admit(ctx context.Context) (release func(), err error) {
	endQueue := obs.FromContext(ctx).Stage("admission.queue")
	select {
	case s.queue <- struct{}{}:
		endQueue()
	default:
		endQueue()
		return nil, errBusy
	}
	releaseSlot, err := s.admitJob(ctx)
	if err != nil {
		<-s.queue
		return nil, err
	}
	return func() { releaseSlot(); <-s.queue }, nil
}

// admitJob is a job pass's gate: the admission.slot wait alone. The
// queue token is how HTTP requests are shed at the door; a job was
// already accepted with 202 and holds one of the slots runners, so
// its waiters are bounded and it never fails with errBusy.
func (s *server) admitJob(ctx context.Context) (release func(), err error) {
	defer obs.FromContext(ctx).Stage("admission.slot")()
	select {
	case s.run <- struct{}{}:
		return func() { <-s.run }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// retryAfterSeconds estimates when a shed client should come back:
// the sync work already queued ahead of it (queue occupancy × recent
// mean request latency; jobs hold no queue token, so they are not
// counted) divided by the service's parallelism, rounded up
// and clamped to [1, 30] seconds. Before any request has completed
// there is no latency sample and the floor applies — the pre-derived
// behavior (a constant 1) — so the header only grows once the service
// has evidence the backlog really is that slow.
func (s *server) retryAfterSeconds() int {
	mean := s.renderLatency.Mean()
	if m := s.filterLatency.Mean(); m > mean {
		mean = m
	}
	est := time.Duration(len(s.queue)) * mean / time.Duration(cap(s.run))
	sec := int((est + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// requestCtx derives the per-request context: the client's deadline_ms
// clamped to the configured maximum, or the default when unset. It
// chains off the connection context, so a client hanging up cancels the
// kernel too.
func (s *server) requestCtx(r *http.Request, deadlineMS int) (context.Context, context.CancelFunc) {
	d := s.defaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	if d > s.maxDeadline {
		d = s.maxDeadline
	}
	return context.WithTimeout(r.Context(), d)
}

// admissionError writes the HTTP response for a failed admit or a
// kernel aborted by its context, and returns true if err was one of
// those. Unrecognised errors are left for the caller.
func (s *server) admissionError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, errBusy):
		s.rejected.Inc(0)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "server busy: admission queue full", http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineMiss.Inc(0)
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client hung up (or the connection died); the status is
		// a formality nobody will read.
		http.Error(w, "request cancelled", http.StatusServiceUnavailable)
	default:
		return false
	}
	return true
}

type renderRequest struct {
	Volume string `json:"volume"`
	// View/Views select a camera on the standard orbit, matching the
	// paper's harness: view v of n evenly spaced azimuths.
	View    int  `json:"view"`
	Views   int  `json:"views"`
	Width   int  `json:"width"`
	Height  int  `json:"height"`
	Workers int  `json:"workers"`
	Shade   bool `json:"shade"`
	// Format is "png" (default) or "raw": raw is the float32 RGBA
	// frame, little-endian, row-major.
	Format string `json:"format"`
	// Dtype, when set, renders the volume converted to that element
	// type (e.g. "uint8"); default is the volume's stored dtype.
	Dtype      string `json:"dtype"`
	DeadlineMS int    `json:"deadline_ms"`
}

// httpErr carries an HTTP status with its message through the shared
// plan helpers, so the sync handlers and the jobs API map identical
// validation onto their own response surfaces.
type httpErr struct {
	code int
	msg  string
}

func (e *httpErr) Error() string { return e.msg }

// getVolume resolves a name through the store, mapping its two failure
// modes onto HTTP: an unknown (or deleted) name is the caller's 404; a
// failed demand load (I/O, integrity) is the service's 500 — the store
// refuses to serve data it cannot verify, and so do we.
func (s *server) getVolume(name string) (*store.Volume, *httpErr) {
	v, err := s.store.Get(name)
	if err == nil {
		return v, nil
	}
	if errors.Is(err, store.ErrNotFound) {
		return nil, &httpErr{http.StatusNotFound, fmt.Sprintf("unknown volume %q", name)}
	}
	return nil, &httpErr{http.StatusInternalServerError, err.Error()}
}

// kernelPlan is a validated /render or /filter request in the form the
// shared handler (kernelHandler), the response cache (cached) and the
// jobs run it: the response digest, which doubles as cache key and
// ETag, the client's deadline, a freshness check and the compute.
type kernelPlan struct {
	key, etag  string
	deadlineMS int
	// fresh reports whether a cached response for key, or a 304, still
	// describes the service's state: always for a render; for a filter
	// only while dst holds this run's output (dstHoldsResult).
	fresh func() bool
	// compute produces the response on a miss: the resolved input,
	// admission through admit, kernel, encode.
	compute func(ctx context.Context, t *obs.Trace, admit admitFunc) (rcache.Value, error)
}

// shared returns the plan itself. renderPlan and filterPlan embed a
// kernelPlan and so inherit it, which is how kernelHandler serves both.
func (p *kernelPlan) shared() *kernelPlan { return p }

// kernelHandler serves a kernel route, POST /render or POST /filter:
// decode the body into R, plan it, answer a matching If-None-Match with
// 304 while the plan is fresh, then run the plan through cached under
// the request's deadline and write the response.
func kernelHandler[R any, P interface{ shared() *kernelPlan }](s *server, reqs *metrics.Counter, plan func(R) (P, *httpErr)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc(0)
		t := obs.FromContext(r.Context())
		var req R
		endDecode := t.Stage("decode")
		err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req)
		endDecode()
		if err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		endDigest := t.Stage("digest")
		planned, herr := plan(req)
		if herr != nil {
			endDigest()
			http.Error(w, herr.msg, herr.code)
			return
		}
		p := planned.shared()
		// A strong ETag is derived purely from the digest, so a match
		// can be answered 304 without the entry being resident.
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, p.etag) && p.fresh() {
			endDigest()
			w.Header().Set("ETag", p.etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		// From here to the response every step runs inside a top-level
		// stage, so the stages account for the whole request.
		ctx, cancel := s.requestCtx(r, p.deadlineMS)
		defer cancel()
		endDigest()

		// As leader, the compute runs on this request's goroutine, so its
		// stage spans land in this request's trace; a coalesced waiter's
		// trace shows only the enclosing cache stage.
		v, out, err := s.cached(ctx, t, p, s.admit)
		// The response write is a stage of its own, and the deadline is
		// released inside it: a write that blocks, or a preemption under
		// load, would otherwise open a gap no stage accounts for.
		defer t.Stage("respond")()
		cancel()
		if err != nil {
			// Every client error is rejected by plan before any work, so
			// what remains (a failed store write, a failed demand load) is
			// the service's fault.
			if !s.admissionError(w, err) {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		serveValue(w, v, p.etag, out)
	}
}

// cached runs p through the response cache inside a "cache" stage that
// wraps a lookup, a coalesced wait on another caller's run, or (as
// leader) p's whole compute under the given admission gate; the nested
// spans and the outcome tell which. A resident entry that p no longer
// vouches for (not fresh: a filter whose dst was replaced since the
// run) is dropped first, so the kernel re-runs instead of replaying a
// claim that is no longer true. The sync handler and both job kinds
// call it, so one digest runs the kernel once however it arrives.
func (s *server) cached(ctx context.Context, t *obs.Trace, p *kernelPlan, admit admitFunc) (rcache.Value, rcache.Outcome, error) {
	defer t.Stage("cache")()
	if !p.fresh() {
		s.cache.Invalidate(p.key)
	}
	return s.cache.Do(ctx, p.key, func(ctx context.Context) (rcache.Value, error) {
		return p.compute(ctx, t, admit)
	})
}

// renderPlan is a validated render request with everything resolved
// that both the sync path and a render job need before any kernel
// work: the volume and the element type the render runs at.
type renderPlan struct {
	kernelPlan
	req renderRequest // normalized: all defaults applied
	vol *store.Volume
	dt  sfcmem.Dtype
}

// planRender normalizes and validates req and computes its digest. The
// digest covers everything that determines the response bytes: the
// volume's contents (name + generation), the element type the render
// runs at, and the full view/framing parameters. Workers and deadline
// are execution knobs — per-pixel compositing is worker-count-
// invariant — so they are deliberately absent. Render jobs store their
// final frame under this same digest, which is what lets a sync
// /render hit the cache after the job completes.
func (s *server) planRender(req renderRequest) (*renderPlan, *httpErr) {
	if req.Views <= 0 {
		req.Views = 24
	}
	if req.Width <= 0 {
		req.Width = 256
	}
	if req.Height <= 0 {
		req.Height = 256
	}
	if req.Workers <= 0 {
		req.Workers = runtime.GOMAXPROCS(0)
	}
	if req.Width > 4096 || req.Height > 4096 || req.Workers > 256 {
		return nil, &httpErr{http.StatusBadRequest, "image or worker count out of range"}
	}
	if req.Format == "" {
		req.Format = "png"
	}
	if req.Format != "png" && req.Format != "raw" {
		return nil, &httpErr{http.StatusBadRequest, fmt.Sprintf("unknown format %q (want png or raw)", req.Format)}
	}
	vol, herr := s.getVolume(req.Volume)
	if herr != nil {
		return nil, herr
	}
	dt := vol.Grid.Dtype()
	if req.Dtype != "" {
		var err error
		if dt, err = sfcmem.ParseDtype(req.Dtype); err != nil {
			return nil, &httpErr{http.StatusBadRequest, err.Error()}
		}
	}
	key := digest(s.nonce, "render", "v1", vol.Name, vol.Gen, dt,
		req.View, req.Views, req.Width, req.Height, req.Shade, req.Format)
	p := &renderPlan{req: req, vol: vol, dt: dt}
	p.kernelPlan = kernelPlan{
		key: key, etag: etagFor(key), deadlineMS: req.DeadlineMS,
		fresh: func() bool { return true },
		compute: func(ctx context.Context, t *obs.Trace, admit admitFunc) (rcache.Value, error) {
			return s.renderFull(ctx, t, p, admit)
		},
	}
	return p, nil
}

// rasterize runs the raycast kernel over g (with its empty-space map
// accel, which may be nil) with req's orbit framing at the given output
// size and encodes the frame — the section shared by sync /render (full
// resolution) and the jobs runner, which calls it twice per job: once
// over the coarse subsample at reduced size, once over the full volume.
// The stage name keeps the two passes apart in one trace.
func (s *server) rasterize(ctx context.Context, t *obs.Trace, g *sfcmem.AnyGrid, accel *sfcmem.Accel, req renderRequest, width, height int, stage string) (rcache.Value, error) {
	nx, ny, nz := g.Dims()
	cam := sfcmem.Orbit(req.View, req.Views, nx, ny, nz, width, height)
	endKernel := t.Stage(stage)
	img, err := s.renderImage(ctx, g, cam, renderTF, sfcmem.RenderOptions{
		Workers:  req.Workers,
		Shade:    req.Shade,
		Accel:    accel,
		Observer: t.Observer("tile"),
	})
	endKernel()
	if err != nil {
		return rcache.Value{}, err
	}
	endEncode := t.Stage("encode")
	v, err := encodeFrame(img, req.Format)
	endEncode()
	return v, err
}

// renderFull is a render plan's compute: prepared volume, admission,
// raycast and encode at full resolution. The prepared volume is fetched
// inside, so cache hits skip even that lookup. Admission is taken
// inside too: a caller coalesced onto another's run holds no slot while
// it waits, so at -slots 1 a job cannot hold the only slot while it
// waits on a sync leader that needs it.
func (s *server) renderFull(ctx context.Context, t *obs.Trace, p *renderPlan, admit admitFunc) (rcache.Value, error) {
	pv, err := s.prepare(t, p.vol, p.dt)
	if err != nil {
		return rcache.Value{}, err
	}
	release, err := admit(ctx)
	if err != nil {
		return rcache.Value{}, err
	}
	defer release()
	start := time.Now()
	v, err := s.rasterize(ctx, t, pv.grid, pv.accel, p.req, p.req.Width, p.req.Height, "kernel")
	if err != nil {
		return rcache.Value{}, err
	}
	s.renderLatency.Observe(time.Since(start))
	return v, nil
}

// encodeFrame serializes a rendered image in the requested format into
// a cacheable response value.
func encodeFrame(img *sfcmem.Image, format string) (rcache.Value, error) {
	switch format {
	case "png":
		var buf bytes.Buffer
		if err := img.WritePNG(&buf); err != nil {
			return rcache.Value{}, err
		}
		return rcache.Value{Body: buf.Bytes(), ContentType: "image/png"}, nil
	case "raw":
		body := make([]byte, 0, img.W*img.H*16)
		for y := 0; y < img.H; y++ {
			for x := 0; x < img.W; x++ {
				c := img.At(x, y)
				for _, f := range [4]float32{c.R, c.G, c.B, c.A} {
					body = binary.LittleEndian.AppendUint32(body, math.Float32bits(f))
				}
			}
		}
		return rcache.Value{
			Body:        body,
			ContentType: "application/octet-stream",
			Meta: map[string]string{
				"X-Image-Width":  fmt.Sprint(img.W),
				"X-Image-Height": fmt.Sprint(img.H),
			},
		}, nil
	}
	return rcache.Value{}, fmt.Errorf("unknown format %q", format)
}

type filterRequest struct {
	Src string `json:"src"`
	// Dst names the volume the filtered grid is stored under; default
	// src + ".filtered". The destination uses the source's layout.
	Dst string `json:"dst"`
	// Kernel is "bilateral" (default) or "gaussian".
	Kernel     string  `json:"kernel"`
	Radius     int     `json:"radius"`
	Axis       string  `json:"axis"` // "x" (default), "y", "z"
	SigmaRange float64 `json:"sigma_range"`
	Workers    int     `json:"workers"`
	// Dtype, when set, converts the source to that element type before
	// filtering; the destination volume is stored at the same dtype.
	Dtype      string `json:"dtype"`
	DeadlineMS int    `json:"deadline_ms"`
}

// filterPlan is a validated filter request with the source volume, the
// run's element type and the selected kernel resolved — shared by sync
// /filter and filter jobs. The digest ties the result to the source
// contents (name + generation), the full kernel parameters, and the
// destination name — part of the observable effect (which volume the
// result lands in). The destination's *state* cannot live in the key
// (the run itself bumps it); it is the plan's freshness check instead.
type filterPlan struct {
	kernelPlan
	req    filterRequest // normalized: all defaults applied
	src    *store.Volume
	dt     sfcmem.Dtype
	axis   sfcmem.Axis
	kernel func(context.Context, *sfcmem.AnyGrid, *sfcmem.AnyGrid, sfcmem.FilterOptions) error
}

// planFilter normalizes and validates req and computes its digest.
func (s *server) planFilter(req filterRequest) (*filterPlan, *httpErr) {
	if req.Dst == "" {
		req.Dst = req.Src + ".filtered"
	}
	if req.Kernel == "" {
		req.Kernel = "bilateral"
	}
	if req.Radius <= 0 {
		req.Radius = 2
	}
	if req.Workers <= 0 {
		req.Workers = runtime.GOMAXPROCS(0)
	}
	if req.Radius > 8 || req.Workers > 256 {
		return nil, &httpErr{http.StatusBadRequest, "radius or worker count out of range"}
	}
	if req.SigmaRange < 0 {
		return nil, &httpErr{http.StatusBadRequest, "sigma_range must be non-negative (zero selects the default)"}
	}
	var axis sfcmem.Axis
	switch req.Axis {
	case "", "x":
		axis = sfcmem.AxisX
	case "y":
		axis = sfcmem.AxisY
	case "z":
		axis = sfcmem.AxisZ
	default:
		return nil, &httpErr{http.StatusBadRequest, fmt.Sprintf("unknown axis %q (want x, y, or z)", req.Axis)}
	}
	kernel := sfcmem.BilateralAnyCtx
	switch req.Kernel {
	case "bilateral":
	case "gaussian":
		kernel = sfcmem.GaussianConvolveAnyCtx
	default:
		return nil, &httpErr{http.StatusBadRequest, fmt.Sprintf("unknown kernel %q (want bilateral or gaussian)", req.Kernel)}
	}
	src, herr := s.getVolume(req.Src)
	if herr != nil {
		return nil, herr
	}
	dt := src.Grid.Dtype()
	if req.Dtype != "" {
		var err error
		if dt, err = sfcmem.ParseDtype(req.Dtype); err != nil {
			return nil, &httpErr{http.StatusBadRequest, err.Error()}
		}
	}
	key := digest(s.nonce, "filter", "v1", src.Name, src.Gen, req.Dst, req.Kernel,
		req.Radius, axis, req.SigmaRange, dt)
	p := &filterPlan{req: req, src: src, dt: dt, axis: axis, kernel: kernel}
	p.kernelPlan = kernelPlan{
		key: key, etag: etagFor(key), deadlineMS: req.DeadlineMS,
		fresh: func() bool { return s.dstHoldsResult(p) },
		compute: func(ctx context.Context, t *obs.Trace, admit admitFunc) (rcache.Value, error) {
			return s.applyFilter(ctx, t, p, admit)
		},
	}
	return p, nil
}

// dstHoldsResult reports whether the destination volume currently
// holds this exact filter run's output. The endpoint's main effect is
// mutating dst, so a cached response — or a 304 — is only honest while
// that effect is still in place; an upload over dst clears its
// filterKey, forcing the next identical request back through the
// kernel. Stat answers from metadata, so the check never demand-loads
// a non-resident destination's bricks.
func (s *server) dstHoldsResult(p *filterPlan) bool {
	in, ok := s.store.Stat(p.req.Dst)
	return ok && in.FilterKey == p.key
}

// applyFilter is a filter plan's compute: the converted source view,
// admission, the filter kernel, the destination volume's store, and the
// JSON response body.
func (s *server) applyFilter(ctx context.Context, t *obs.Trace, p *filterPlan, admit admitFunc) (rcache.Value, error) {
	srcGrid, err := s.converted(t, p.src, p.dt)
	if err != nil {
		return rcache.Value{}, err
	}
	release, err := admit(ctx)
	if err != nil {
		return rcache.Value{}, err
	}
	defer release()
	start := time.Now()
	dst := sfcmem.NewAnyGrid(srcGrid.Dtype(), srcGrid.Layout())
	endKernel := t.Stage("kernel")
	err = p.kernel(ctx, srcGrid, dst, sfcmem.FilterOptions{
		Radius:     p.req.Radius,
		Axis:       p.axis,
		SigmaRange: p.req.SigmaRange,
		Workers:    p.req.Workers,
		Observer:   t.Observer("pencil"),
	})
	endKernel()
	if err != nil {
		return rcache.Value{}, err
	}
	elapsed := time.Since(start)
	s.filterLatency.Observe(elapsed)
	endEncode := t.Stage("encode")
	defer endEncode()
	if err := s.store.Put(&store.Volume{
		Name:      p.req.Dst,
		Dataset:   p.src.Dataset + "+" + p.req.Kernel,
		Layout:    p.src.Layout,
		Grid:      dst,
		FilterKey: p.key,
	}); err != nil {
		return rcache.Value{}, err
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(map[string]any{ //nolint:errcheck // bytes.Buffer never fails
		"volume":  p.req.Dst,
		"dtype":   dst.Dtype().String(),
		"seconds": elapsed.Seconds(),
	})
	return rcache.Value{Body: buf.Bytes(), ContentType: "application/json"}, nil
}

type createVolumeRequest struct {
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	Size    int    `json:"size"`
	Layout  string `json:"layout"`
	Dtype   string `json:"dtype"` // element type; default float32
}

func (s *server) handleCreateVolume(w http.ResponseWriter, r *http.Request) {
	var req createVolumeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Layout == "" {
		req.Layout = "zorder"
	}
	v, err := synthesizeVolume(req.Name, req.Dataset, req.Size, req.Layout, req.Dtype)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.respondStored(w, obs.FromContext(r.Context()), v)
}

// respondStored puts v — traced as the "persist" stage — and writes the
// 201 response with the stored volume's metadata. A failed Put — only
// possible with a disk tier — is a 500: the store kept its previous
// contents.
func (s *server) respondStored(w http.ResponseWriter, t *obs.Trace, v *store.Volume) {
	endPersist := t.Stage("persist")
	err := s.store.Put(v)
	endPersist()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	in, ok := s.store.Stat(v.Name)
	if !ok { // racing DELETE won; report what this request stored
		in = store.InfoOf(v)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(in) //nolint:errcheck
}

// maxUploadBytes bounds a PUT /volumes/{name} payload: a 512³ float64
// volume is 1 GiB, far past what the in-memory store is for, so cap at
// 256 MiB (a 512³ uint16 volume, or 256³ float64 with headroom).
const maxUploadBytes = 256 << 20

// checkBufferBytes refuses a layout whose buffer would take more than
// limit bytes at the dtype's width. The buffer is Len() elements,
// padding included, so the logical voxel count bounds nothing on its
// own: "bit:yz" + 25 y's + "x" addresses a 2³ volume through a
// 2²⁷-element buffer. Run it before anything is allocated.
func checkBufferBytes(l sfcmem.Layout, dt sfcmem.Dtype, limit int64) error {
	if int64(l.Len()) > limit/int64(dt.Size()) {
		return fmt.Errorf("layout %s needs %d %s elements, past the %d-byte limit", l.Name(), l.Len(), dt, limit)
	}
	return nil
}

// handleUploadVolume stores a client-supplied raw volume:
//
//	PUT /volumes/{name}?dtype=uint8&layout=zorder&nx=64&ny=64&nz=64
//
// with the body holding nx*ny*nz samples of the given dtype,
// little-endian, row-major. Truncated and oversized bodies are rejected
// with the expected and actual byte counts. The trace splits the
// upload into "ingest" (body to grid) and "persist" (store.Put).
func (s *server) handleUploadVolume(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		http.Error(w, "volume name must be non-empty", http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	dtName := q.Get("dtype")
	if dtName == "" {
		dtName = "float32"
	}
	dt, err := sfcmem.ParseDtype(dtName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	layoutName := q.Get("layout")
	if layoutName == "" {
		layoutName = "zorder"
	}
	dims := [3]int{}
	for i, key := range []string{"nx", "ny", "nz"} {
		n, err := strconv.Atoi(q.Get(key))
		if err != nil {
			http.Error(w, fmt.Sprintf("bad %s %q", key, q.Get(key)), http.StatusBadRequest)
			return
		}
		if n < 2 || n > 512 {
			http.Error(w, fmt.Sprintf("%s %d out of range [2,512]", key, n), http.StatusBadRequest)
			return
		}
		dims[i] = n
	}
	// Spec-aware parse after the dims are known: a bit-interleave layout
	// ("bit:yxzyxz…") validates against the extents it must address.
	l, err := sfcmem.ParseLayoutSpec(layoutName, dims[0], dims[1], dims[2])
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := checkBufferBytes(l, dt, maxUploadBytes); err != nil {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	t := obs.FromContext(r.Context())
	endIngest := t.Stage("ingest")
	g, err := sfcmem.LoadRawAny(http.MaxBytesReader(w, r.Body, maxUploadBytes), dt, l)
	endIngest()
	if err != nil {
		// Truncation/oversize errors name expected vs actual byte counts.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.respondStored(w, t, &store.Volume{Name: name, Dataset: "upload", Layout: l.Name(), Grid: g})
}

// handleDeleteVolume removes a volume from every storage tier. The
// name's generation floor survives (in memory, and on disk as a
// tombstone manifest when -data-dir is set), so a later re-create gets
// a strictly higher generation and stale ETags can never validate.
func (s *server) handleDeleteVolume(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.store.Delete(name); err != nil {
		if errors.Is(err, store.ErrNotFound) {
			http.Error(w, fmt.Sprintf("unknown volume %q", name), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleListVolumes(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.store.List()) //nolint:errcheck
}

// handleHealthz is the liveness probe: 200 for as long as the process
// can serve HTTP at all, including while draining — a draining process
// is still alive and must not be restarted mid-drain. Routability is
// /readyz's question.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 503 until the volume store is
// populated and again from the moment shutdown begins, so a load
// balancer stops routing here during the drain while in-flight
// requests finish.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !s.ready.Load():
		http.Error(w, "volume store not initialized", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ready")
	}
}
