package main

// The layout-tuning API: POST /volumes/{name}/tune runs the
// generalized-Morton interleave autotuner (internal/tune) over a
// stored volume as a background job and, by default, re-lays the
// volume out under the winning interleave. The re-layout goes through
// store.Put, so it rides the generation-bump machinery: every cached
// response for the old layout's contents becomes unreachable, and the
// new layout string persists in the volume manifest (and on disk with
// -data-dir), reconstructing via ParseLayoutSpec on restart.
//
// Tuning is bulk work by nature — the search replays the kernel
// through the cache simulator once per candidate — so jobs default to
// the bulk lane and never preempt interactive renders.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"sfcmem"
	"sfcmem/internal/cache"
	"sfcmem/internal/filter"
	"sfcmem/internal/jobs"
	"sfcmem/internal/obs"
	"sfcmem/internal/parallel"
	"sfcmem/internal/rcache"
	"sfcmem/internal/store"
	"sfcmem/internal/tune"
)

// maxTuneElems bounds the volume size the tuner accepts: the search
// replays the kernel through the simulator for every candidate, so
// cost scales as elements × candidates. A default search of a 128³
// float32 volume (bilateral, 23 replays of ≈2.2 s each) took 39 s on
// a 2-vCPU VM (DESIGN §15); past 128³, tune a smaller volume of the
// same shape class and upload with the winning layout.
const maxTuneElems = 1 << 21

// tuneRequest is the POST /volumes/{name}/tune body. An empty body is
// valid: every field has a default.
type tuneRequest struct {
	// Kernel is the workload to tune for: "bilateral" (default) or
	// "volrend".
	Kernel string `json:"kernel"`
	// Seed drives the search's PCG stream and the proxy dataset;
	// default 1. Same volume + kernel + seed ⇒ same winning layout.
	Seed uint64 `json:"seed"`
	// Population and Generations size the evolutionary search;
	// defaults 8 and 3 (the CI smoke scale).
	Population  int `json:"population"`
	Generations int `json:"generations"`
	// Workers is the simulated thread count; default 2.
	Workers int `json:"workers"`
	// Apply controls whether the winning layout is installed: when
	// true (default) the volume is re-laid-out and re-stored under a
	// bumped generation. false reports the winner without touching
	// the volume.
	Apply *bool `json:"apply"`
	// Priority selects the job lane; default "bulk" (unlike /jobs,
	// where the default is interactive — tuning is batch work).
	Priority string `json:"priority"`
}

// tuneOutcome is the job's "result" event payload and stored result.
type tuneOutcome struct {
	Volume string `json:"volume"`
	Kernel string `json:"kernel"`
	// Layout is the winning layout spec ("bit:…"); Previous the
	// volume's layout when the job was submitted.
	Layout   string `json:"layout"`
	Previous string `json:"previous"`
	// TunedMisses and ZOrderMisses are simulated L1 misses for the
	// winner and for plain Z order under the identical replay.
	TunedMisses  uint64  `json:"tuned_misses"`
	ZOrderMisses uint64  `json:"zorder_misses"`
	ImprovePct   float64 `json:"improve_pct"` // vs Z order; negative = regression
	Candidates   int     `json:"candidates"`  // distinct specs evaluated
	Applied      bool    `json:"applied"`
	Gen          uint64  `json:"gen,omitempty"` // volume generation after apply
	Seconds      float64 `json:"seconds"`
}

// handleTuneVolume validates a tune request and submits it as a
// background job: 202 + job id, result over GET /jobs/{id}/events.
func (s *server) handleTuneVolume(w http.ResponseWriter, r *http.Request) {
	s.tuneReqs.Inc(0)
	var req tuneRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	lane, err := jobs.ParseLane(valueOr(req.Priority, "bulk"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	run, herr := s.tuneJob(r.PathValue("name"), req)
	if herr != nil {
		http.Error(w, herr.msg, herr.code)
		return
	}
	s.submit(w, r, lane, run)
}

// tuneJob validates the request against the volume and returns the
// job's run, runTuneJob.
func (s *server) tuneJob(name string, req tuneRequest) (jobRun, *httpErr) {
	kernel, err := tune.ParseKernel(valueOr(req.Kernel, string(tune.KernelBilateral)))
	if err != nil {
		return nil, &httpErr{http.StatusBadRequest, err.Error()}
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Population <= 0 {
		req.Population = 8
	}
	if req.Generations <= 0 {
		req.Generations = 3
	}
	if req.Workers <= 0 {
		req.Workers = 2
	}
	if req.Population > 64 || req.Generations > 32 || req.Workers > 16 {
		return nil, &httpErr{http.StatusBadRequest, "population, generations or workers out of range"}
	}
	apply := req.Apply == nil || *req.Apply
	vol, herr := s.getVolume(name)
	if herr != nil {
		return nil, herr
	}
	nx, ny, nz := vol.Grid.Dims()
	if nx*ny*nz > maxTuneElems {
		return nil, &httpErr{http.StatusUnprocessableEntity,
			fmt.Sprintf("volume %d×%d×%d exceeds the %d-element tuning limit", nx, ny, nz, maxTuneElems)}
	}
	cfg := tune.InterleaveConfig{
		Nx: nx, Ny: ny, Nz: nz,
		Seed:   req.Seed,
		Kernel: kernel,
		Dtype:  vol.Grid.Dtype(),
		Options: filter.Options{
			Radius: 1, Axis: parallel.AxisZ, Order: filter.ZYX, Workers: req.Workers,
		},
		// A shrunken deterministic platform: interleave ranking happens
		// at cache-line granularity, and the scaled hierarchy keeps the
		// proxy volume's working set out of cache the way the full-size
		// volume's would be on real hardware.
		Platform:    cache.Scaled(cache.IvyBridge(), 32),
		Population:  req.Population,
		Generations: req.Generations,
	}
	return func(ctx context.Context, jt *obs.Trace, j *jobs.Job) error {
		return s.runTuneJob(ctx, jt, vol, cfg, apply, j)
	}, nil
}

// runTuneJob executes a tune job on a scheduler runner: a run slot
// (admitJob), interleave search, optional re-layout + store (the
// generation bump), result event. The run slot covers both phases —
// the search occupies simulator CPU, the re-layout streams the volume.
func (s *server) runTuneJob(ctx context.Context, jt *obs.Trace, vol *store.Volume, cfg tune.InterleaveConfig, apply bool, j *jobs.Job) error {
	release, err := s.admitJob(ctx)
	if err != nil {
		return err
	}
	defer release()
	start := time.Now()
	endSearch := jt.Stage("tune.search")
	res, err := tune.Interleave(ctx, cfg)
	endSearch()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil { // cancelled after the last candidate
		return err
	}
	out := tuneOutcome{
		Volume:       vol.Name,
		Kernel:       string(cfg.Kernel),
		Layout:       res.Layout,
		Previous:     vol.Layout,
		TunedMisses:  res.Score,
		ZOrderMisses: res.ZOrder,
		Candidates:   len(res.Evals),
	}
	if res.ZOrder > 0 {
		out.ImprovePct = 100 * (float64(res.ZOrder) - float64(res.Score)) / float64(res.ZOrder)
	}
	if out.ImprovePct > 0 {
		s.tuneImproved.Inc(0)
	}
	if apply && res.Layout != vol.Layout {
		endApply := jt.Stage("tune.relayout")
		err := s.applyTunedLayout(vol, res.Layout, &out)
		endApply()
		if err != nil {
			return err
		}
	}
	out.Seconds = time.Since(start).Seconds()
	s.tuneLatency.Observe(time.Since(start))
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(out) //nolint:errcheck // bytes.Buffer never fails
	v := rcache.Value{Body: buf.Bytes(), ContentType: "application/json"}
	j.SetResult(&v)
	j.Emit("result", json.RawMessage(bytes.TrimSpace(v.Body)))
	return nil
}

// applyTunedLayout re-lays the volume out under the winning layout
// and re-stores it. Put assigns a fresh generation, so every cached
// response digest minted against the old contents stops validating;
// the manifest's Layout field carries the interleave string, which is
// exactly what ParseLayoutSpec reconstructs from after a restart.
// The relayout is a pure copy — renders of the re-laid volume are
// byte-identical to renders of the original.
func (s *server) applyTunedLayout(vol *store.Volume, layoutSpec string, out *tuneOutcome) error {
	nx, ny, nz := vol.Grid.Dims()
	l, err := sfcmem.ParseLayoutSpec(layoutSpec, nx, ny, nz)
	if err != nil {
		return fmt.Errorf("winning layout %q: %w", layoutSpec, err)
	}
	ng, err := vol.Grid.Relayout(l)
	if err != nil {
		return err
	}
	if err := s.store.Put(&store.Volume{
		Name:    vol.Name,
		Dataset: vol.Dataset,
		Layout:  l.Name(),
		Grid:    ng,
	}); err != nil {
		return err
	}
	out.Applied = true
	out.Layout = l.Name()
	if in, ok := s.store.Stat(vol.Name); ok {
		out.Gen = in.Gen
	}
	s.tuneApplied.Inc(0)
	return nil
}

// valueOr returns s, or def when s is empty.
func valueOr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
