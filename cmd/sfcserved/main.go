// Command sfcserved serves the repo's kernels as a long-running request
// service over an in-memory volume store: POST /render raycasts a named
// volume to a PNG (or raw float32) frame, POST /filter runs the
// bilateral or Gaussian kernel into a new named volume, and GET/POST
// /volumes inspect and extend the store.
//
// The service exists to exercise the cancellable kernel entry points
// under a real request lifecycle: every request gets a deadline-bounded
// context, admission is a bounded queue that sheds overload with 429
// rather than piling up goroutines, and SIGINT/SIGTERM drains in-flight
// work before exit (bounded by -drain).
//
// Render and filter responses are kept in a byte-budgeted LRU
// (-cache-bytes, default 64 MiB) keyed by a content digest (volume name
// + store generation + full request parameters): the kernels are
// deterministic, so repeated requests are served from memory with
// strong ETags (If-None-Match answers 304), and concurrent identical
// requests coalesce onto a single kernel run. /render and /filter share
// one handler over a validated plan. Replacing a volume via PUT bumps
// its generation, which strands every cached result for the old
// contents.
//
// POST /jobs runs the same render/filter work asynchronously with
// progressive delivery: a job streams a coarse preview frame (the
// multiresolution subsample) over SSE (GET /jobs/{id}/events) before
// the full-resolution refinement; a job whose frame is already cached
// emits only the refined frame. Jobs run as they arrive, on -slots
// runners, and an interactive lane preempts bulk work at every
// dispatch; a job pass waits for a run slot but never takes an
// admission queue token, so an accepted job is never shed. The
// converted view, prepared volume and subsample a job needs are built
// once per stored generation and shared with every other request.
// DELETE /jobs/{id} (or a dropped SSE connection) cancels through the
// kernels' context plumbing.
//
// Every render/filter/volumes request runs under a request-scoped
// trace: the service accepts W3C traceparent, always answers with an
// X-Request-Id, and records a span per stage (admission queue and slot
// wait, cache lookup, dtype resolution, kernel, encode) plus the kernel
// workers' per-item spans. Completed requests emit one JSON access-log
// line (stderr) with the per-stage breakdown; -slow-log additionally
// dumps the full span tree of outliers, and -obs-off ablates the whole
// layer for overhead measurement.
//
// A second listener (-ops) carries the operational endpoints — /metrics
// (the metrics registry as JSON, or Prometheus text format with
// ?format=prometheus), /ops/requests (live in-flight requests with
// their current stage), /ops/trace/recent (the last completed request
// span-trees as Chrome trace_event JSON for about:tracing/Perfetto),
// /version, /debug/vars and /debug/pprof — kept off the request port so
// they are never behind the admission gate.
//
//	sfcserved -addr :8080 -ops :8081 -volume demo=plume:64:zorder
//	curl -d '{"volume":"demo","width":256,"height":256}' localhost:8080/render > frame.png
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sfcmem/internal/metrics"
	"sfcmem/internal/obs"
	"sfcmem/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr))
}

type config struct {
	addr, ops string
	volumes   []string
	// dataDir, when non-empty, persists volumes as SFC-ordered brick
	// files under this directory and demand-loads them back; empty
	// keeps the original RAM-only store.
	dataDir string
	// storeRAMBytes caps the RAM tier when dataDir is set; volumes past
	// the budget are evicted LRU and paged back in on access.
	storeRAMBytes   int64
	slots           int
	queueDepth      int
	cacheBytes      int64
	defaultDeadline time.Duration
	maxDeadline     time.Duration
	drainTimeout    time.Duration
	obsOff          bool
	slowLog         time.Duration
	// accessLog receives the JSON access-log stream; run wires it to
	// stderr, tests substitute a buffer. Nil falls back to stderr.
	accessLog io.Writer
}

// volumeList collects repeated -volume flags.
type volumeList struct{ specs *[]string }

func (v volumeList) String() string {
	if v.specs == nil {
		return ""
	}
	return strings.Join(*v.specs, ",")
}

func (v volumeList) Set(s string) error {
	*v.specs = append(*v.specs, s)
	return nil
}

// run is main with injectable lifetime, args and stderr so tests can
// drive the full service including shutdown. Exit codes: 0 clean (also
// after a drained signal shutdown), 1 runtime error, 2 usage error.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfcserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.addr, "addr", "localhost:8080", "request listen address")
	fs.StringVar(&cfg.ops, "ops", "localhost:8081", "ops listen address (/metrics, /debug/pprof, /debug/vars)")
	fs.Var(volumeList{&cfg.volumes}, "volume", "volume spec name=dataset:size:layout[:dtype] (repeatable); default demo=plume:48:zorder")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "directory for the persistent volume tier (SFC-ordered brick files); empty keeps volumes in RAM only")
	fs.Int64Var(&cfg.storeRAMBytes, "store-ram-bytes", 0, "RAM budget for resident volumes when -data-dir is set; 0 keeps everything resident (disk is durability only)")
	fs.IntVar(&cfg.slots, "slots", 2, "requests running kernels concurrently")
	fs.IntVar(&cfg.queueDepth, "queue", 8, "admitted requests waiting beyond the running ones; overflow gets 429")
	fs.Int64Var(&cfg.cacheBytes, "cache-bytes", 64<<20, "render/filter response cache budget in bytes (must be > 0)")
	fs.DurationVar(&cfg.defaultDeadline, "deadline", 30*time.Second, "per-request deadline when the request sets none")
	fs.DurationVar(&cfg.maxDeadline, "max-deadline", 2*time.Minute, "upper bound on client-requested deadlines")
	fs.DurationVar(&cfg.drainTimeout, "drain", 30*time.Second, "how long shutdown waits for in-flight requests")
	fs.BoolVar(&cfg.obsOff, "obs-off", false, "disable request tracing and access logs (ablation; RED metrics stay on)")
	fs.DurationVar(&cfg.slowLog, "slow-log", 0, "dump the full span tree of requests slower than this (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.slots < 1 || cfg.queueDepth < 0 {
		fmt.Fprintln(stderr, "sfcserved: -slots must be >= 1 and -queue >= 0")
		return 2
	}
	if cfg.cacheBytes <= 0 {
		fmt.Fprintln(stderr, "sfcserved: -cache-bytes must be > 0")
		return 2
	}
	if cfg.storeRAMBytes != 0 && cfg.dataDir == "" {
		fmt.Fprintln(stderr, "sfcserved: -store-ram-bytes needs -data-dir (an evicted volume must have bricks to reload from)")
		return 2
	}
	a, err := newApp(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "sfcserved:", err)
		return 1
	}
	var names []string
	for _, v := range a.srv.store.List() {
		names = append(names, v.Name)
	}
	var skipped string
	if s, ok := a.srv.store.(*store.Store); ok {
		if dirs := s.Unreadable(); len(dirs) > 0 {
			skipped = "; skipped, manifest unreadable: " + strings.Join(dirs, ", ")
		}
	}
	fmt.Fprintf(stderr, "sfcserved: serving on http://%s (ops http://%s), volumes: %s%s\n",
		a.apiAddr(), a.opsAddr(), strings.Join(names, ", "), skipped)
	if err := a.run(ctx); err != nil {
		fmt.Fprintln(stderr, "sfcserved:", err)
		return 1
	}
	fmt.Fprintln(stderr, "sfcserved: drained, bye")
	return 0
}

// app is the assembled service: volume store, request server, and the
// two HTTP servers with their listeners already bound (so tests can use
// port 0 and read the chosen addresses before run).
type app struct {
	cfg          config
	srv          *server
	apiLn, opsLn net.Listener
	api, ops     *http.Server
}

func newApp(cfg config) (*app, error) {
	reg := metrics.NewRegistry()
	reg.Namespace = "sfcserved"
	var vols store.VolumeStore
	if cfg.dataDir != "" {
		s, err := store.Open(cfg.dataDir, store.Options{
			RAMBytes: cfg.storeRAMBytes,
			Metrics:  reg,
		})
		if err != nil {
			return nil, err
		}
		vols = s
	} else {
		vols = store.NewMemory(reg)
	}
	specs := cfg.volumes
	if len(specs) == 0 {
		specs = []string{"demo=plume:48:zorder"}
	}
	for _, spec := range specs {
		v, err := parseVolumeSpec(spec)
		if err != nil {
			return nil, err
		}
		if err := vols.Put(v); err != nil {
			return nil, err
		}
	}
	// The listeners bind before newServer starts the job runners, so a
	// failed bind leaves nothing running.
	apiLn, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, err
	}
	opsLn, err := net.Listen("tcp", cfg.ops)
	if err != nil {
		apiLn.Close()
		return nil, err
	}
	srv := newServer(vols, reg, cfg)
	if !cfg.obsOff {
		logw := cfg.accessLog
		if logw == nil {
			logw = os.Stderr
		}
		srv.hub = obs.NewHub(logw, 0)
		srv.hub.SlowThreshold = cfg.slowLog
		// The access-log stream opens with the build identity, so every
		// log file self-describes which binary produced it.
		bi := versionInfo()
		srv.hub.Logger().Info("boot",
			"module_version", bi["module_version"],
			"go_version", bi["go_version"],
			"vcs_revision", bi["vcs_revision"],
			"vcs_modified", bi["vcs_modified"],
		)
	}
	// The store is fully populated before the listeners bind, so the
	// service is ready the moment it can accept a connection. A bare
	// newServer (as in unit tests) answers /readyz with 503.
	srv.ready.Store(true)
	opsMux := http.NewServeMux()
	opsMux.Handle("/metrics", reg)
	opsMux.HandleFunc("GET /version", srv.handleVersion)
	if srv.hub != nil {
		opsMux.HandleFunc("GET /ops/requests", srv.hub.HandleInflight)
		opsMux.HandleFunc("GET /ops/trace/recent", srv.hub.HandleRecent)
	}
	opsMux.Handle("/debug/vars", expvar.Handler())
	opsMux.HandleFunc("/debug/pprof/", pprof.Index)
	opsMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	opsMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	opsMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	opsMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &app{
		cfg:   cfg,
		srv:   srv,
		apiLn: apiLn,
		opsLn: opsLn,
		api:   &http.Server{Handler: srv.mux()},
		ops:   &http.Server{Handler: opsMux},
	}, nil
}

func (a *app) apiAddr() string { return a.apiLn.Addr().String() }
func (a *app) opsAddr() string { return a.opsLn.Addr().String() }

// run serves until ctx is done, then drains: the readiness check flips
// to 503, the listeners close, and in-flight requests get up to the
// drain timeout to finish before their connections are cut.
func (a *app) run(ctx context.Context) error {
	errc := make(chan error, 2)
	go func() { errc <- a.api.Serve(a.apiLn) }()
	go func() { errc <- a.ops.Serve(a.opsLn) }()
	select {
	case <-ctx.Done():
	case err := <-errc:
		// A listener failed underneath us; shut the rest down too.
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			a.shutdown()
			return err
		}
	}
	return a.shutdown()
}

func (a *app) shutdown() error {
	a.srv.draining.Store(true)
	dctx, cancel := context.WithTimeout(context.Background(), a.cfg.drainTimeout)
	defer cancel()
	// Jobs drain before the API server: queued jobs run to completion
	// (or fail cleanly when the timeout expires and their kernels are
	// cancelled), their SSE watchers see terminal events and return,
	// and only then does Shutdown wait on the remaining connections.
	err := a.srv.jobs.Drain(dctx)
	if apiErr := a.api.Shutdown(dctx); err == nil {
		err = apiErr
	}
	if opsErr := a.ops.Shutdown(dctx); err == nil {
		err = opsErr
	}
	return err
}
