package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"sfcmem"
	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/obs"
	"sfcmem/internal/parallel"
	"sfcmem/internal/rcache"
	"sfcmem/internal/render"
	"sfcmem/internal/store"
	"sfcmem/internal/volume"
)

// stageNames are the columns of the stage.<class>.<stage>_ms grid: the
// server's stage self times, admission.queue and admission.slot summed
// as "admission", "request" = the request span's own time outside every
// stage, and "outside" = client latency minus the server's request
// total (loopback, HTTP framing, client).
var stageNames = []string{"request", "decode", "digest", "cache", "resolve", "admission", "kernel", "encode", "outside"}

// stageCells lists, per request class of the service probe, the stages
// its requests pass through. A hit stops at the cache; a float32 cold
// render converts nothing; a 64³ filter's cache, kernel and encode
// spans fall past the server's per-trace span cap (see serverSample);
// an upload has no stages.
var stageCells = []struct {
	class  string
	stages []string
}{
	{"render_miss", stageNames},
	{"render_hit", []string{"request", "decode", "digest", "cache", "outside"}},
	{"cold_render", []string{"request", "decode", "digest", "cache", "admission", "kernel", "encode", "outside"}},
	{"filter", []string{"request", "decode", "digest", "admission", "kernel", "outside"}},
	{"upload", []string{"request", "outside"}},
}

var opClasses = []string{"frame", "filter_pass", "render_miss", "render_hit", "revalidate", "job", "cold_render", "upload", "filter", "tune"}

// perLayer is the fixed per-layer list every traced run reports,
// whatever the workload. Every timing comes from a probe that runs the
// same way in each workload (probes, serviceProbe), so none reads 0;
// metrics with unit "count" form the exact-count channel, and the
// window counts (server deltas, ops.<class>) are those of the
// workload's own traffic, 0 for a class or layer it does not use.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) { out = append(out, metricSpec{name, unit, better}) }
	for _, l := range filterLayouts {
		add("core.index_ns."+l, "ns", "lower")
	}
	for _, l := range filterLayouts {
		add("core.step_ns."+l, "ns", "lower")
	}
	for _, l := range filterLayouts {
		add("filter.ns_per_tap."+l, "ns", "lower")
	}
	for _, l := range renderLayouts {
		for _, v := range []string{"aligned", "oblique"} {
			add("render.ms."+l+"."+v, "ms", "lower")
		}
	}
	add("render.png_ms", "ms", "lower")
	add("grid.convert_ms", "ms", "lower")
	add("grid.relayout_ms", "ms", "lower")
	add("volume.plume_ms", "ms", "lower")
	add("volume.mri_ms", "ms", "lower")
	add("multires.subsample_ms", "ms", "lower")
	add("parallel.items.render", "count", "lower")
	add("parallel.items.filter", "count", "lower")
	for _, k := range []string{"bilateral", "render"} {
		for _, l := range filterLayouts {
			add("cache.sim_l1_misses."+k+"."+l, "count", "lower")
		}
	}
	for _, k := range []string{"bilateral", "render"} {
		for _, l := range filterLayouts {
			add("cache.sim_mem_reads."+k+"."+l, "count", "lower")
		}
	}
	add("cache.sim_maccess_per_s", "M/s", "higher")
	add("tune.candidates", "count", "lower")
	add("tune.tuned_misses", "count", "lower")
	add("tune.zorder_misses", "count", "lower")
	add("tune.search_ms", "ms", "lower")
	add("tune.relayout_ms", "ms", "lower")
	add("store.put_mb_s", "MB/s", "higher")
	add("store.cold_get_mb_s", "MB/s", "higher")
	add("store.warm_get_ns", "ns", "lower")
	add("store.load_mean_ms", "ms", "lower")
	for _, c := range windowCounters {
		better := "lower"
		if c == "cache.hits" {
			better = "higher"
		}
		add(c, "count", better)
	}
	add("jobs.ttfb_mean_ms", "ms", "lower")
	add("rcache.hit_ns", "ns", "lower")
	add("obs.envelope_us", "us", "lower")
	for _, c := range stageCells {
		for _, s := range c.stages {
			add("stage."+c.class+"."+s+"_ms", "ms", "lower")
		}
	}
	add("client.healthz_us", "us", "lower")
	add("runtime.alloc_mb_per_op.render", "MB", "lower")
	add("runtime.alloc_mb_per_op.filter", "MB", "lower")
	for _, c := range opClasses {
		add("ops."+c, "count", "higher")
	}
	add("trace.overhead_pct", "%", "lower")
	add("host.calib_ms", "ms", "lower")
	return out
}

// stageLayer names the module behind each server stage in the share
// table. Store work has no stage of its own: a demand load is billed
// inside digest (store.Get) and the filter's store.Put inside encode.
var stageLayer = map[string]string{
	"request":   "obs + sfcserved handler",
	"decode":    "sfcserved (JSON body)",
	"digest":    "sfcserved + store.Get",
	"cache":     "rcache",
	"resolve":   "grid (AnyGrid.Convert)",
	"admission": "sfcserved admission",
	"kernel":    "render / filter + parallel",
	"encode":    "render.WritePNG / store.Put",
	"outside":   "net/http, loopback, client",
}

// stageSet holds, per request class, each server stage's self times in
// seconds.
type stageSet map[string]map[string][]float64

func (s stageSet) add(class string, st map[string]float64) {
	if s[class] == nil {
		s[class] = map[string][]float64{}
	}
	for k, v := range st {
		s[class][k] = append(s[class][k], v)
	}
}

// stageTimes joins a request to the server's span tree through its
// trace id and returns each stage's self time in seconds.
//
// The server keeps at most 512 spans per trace and records a stage span
// when the stage ends, so a request with more kernel work items (a 64³
// filter has 4096 pencils) loses its cache, kernel and encode spans.
// kernelS, when > 0, is the kernel time the response itself reports; it
// then stands in for the lost kernel span, taken out of the request's
// self time.
func stageTimes(svc *service, route string, r *reply, kernelS float64) (map[string]float64, error) {
	st, total, err := svc.serverStages(r.trace, route)
	if err != nil {
		return nil, err
	}
	if _, ok := st["kernel"]; !ok && kernelS > 0 {
		st["kernel"] = kernelS
		st["request"] -= kernelS
	}
	st["admission"] = st["admission.queue"] + st["admission.slot"]
	delete(st, "admission.queue")
	delete(st, "admission.slot")
	st["outside"] = r.latency.Seconds() - total
	return st, nil
}

// serverSample, in a traced round, records the request's stage self
// times for the share table of the workload's reference request.
func (b *bench) serverSample(svc *service, class, route string, r *reply, kernelS float64) {
	if !b.rec.on {
		return
	}
	st, err := stageTimes(svc, route, r, kernelS)
	if err != nil {
		fmt.Fprintln(b.log, "perfbench: stages:", err)
		return
	}
	b.stages.add(class, st)
}

// jobStageTimes returns a background job's stage self times; the job
// trace lands in the ring just after its terminal event, so it is
// polled.
func jobStageTimes(svc *service, trace string) (map[string]float64, error) {
	for i := 0; i < 20; i++ {
		if st, _, err := svc.serverStages(trace, "job"); err == nil {
			return st, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("no job trace for %s", trace)
}

// putLayers runs the probes and reports every per-layer metric.
func (b *bench) putLayers() error {
	if err := b.probes(); err != nil {
		return err
	}
	probed, err := b.serviceProbe()
	if err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	for _, c := range stageCells {
		for _, s := range c.stages {
			b.layers["stage."+c.class+"."+s+"_ms"] = median(probed[c.class][s]) * 1e3
		}
	}
	b.logDriverSpans()
	for k, v := range b.window {
		b.layers[k] = v
	}
	if !b.shareTable(b.stages, "the workload's") {
		b.shareTable(probed, "the service probe's")
	}
	for _, m := range perLayer() {
		b.put(m.name, b.layers[m.name], m.unit, 0)
	}
	return nil
}

// logDriverSpans prints the self time of the driver's own spans per
// layer.
func (b *bench) logDriverSpans() {
	tot := layerSelf(b.rec.spans)
	var names []string
	for l := range tot {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		fmt.Fprintf(b.log, "perfbench: driver-span self time %-10s %8.3f s\n", l, tot[l].Seconds())
	}
}

// shareTable prints the reference request broken into per-layer shares:
// a render_miss (serve-interactive, or the probe on kernels), else a
// cold_render (serve-churn). It reports whether st held one.
func (b *bench) shareTable(st stageSet, whose string) bool {
	for _, class := range []string{"render_miss", "cold_render"} {
		parts := st[class]
		if parts == nil {
			continue
		}
		var names []string
		total, n := 0.0, 0
		for name, xs := range parts {
			names = append(names, name)
			total += median(xs)
			n = max(n, len(xs))
		}
		sort.Slice(names, func(i, j int) bool { return median(parts[names[i]]) > median(parts[names[j]]) })
		fmt.Fprintf(b.log, "perfbench: reference request %s (%s traffic): median of each part over %d traced requests (sum %.3f ms)\n", class, whose, n, total*1e3)
		for _, name := range names {
			m := median(parts[name])
			fmt.Fprintf(b.log, "perfbench:   %-10s %-28s %9.3f ms %6.1f%%\n", name, stageLayer[name], m*1e3, 100*m/total)
		}
		return true
	}
	return false
}

// timeMedian runs fn reps times and returns the median wall time in
// seconds.
func timeMedian(reps int, fn func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs)
}

// probes times the library layers directly, outside any workload; the
// simulator counts among them are exact.
func (b *bench) probes() error {
	rng := rand.New(rand.NewPCG(b.cfg.seed, 0x9b0b))
	const nIdx = 1 << 20
	coords := make([][3]int, nIdx)
	for i := range coords {
		coords[i] = [3]int{rng.IntN(orbitN), rng.IntN(orbitN), rng.IntN(orbitN)}
	}
	sink := 0
	for _, name := range filterLayouts {
		l := layoutFor(name, orbitN)
		b.layers["core.index_ns."+name] = 1e9 / nIdx * timeMedian(5, func() {
			for _, c := range coords {
				sink += l.Index(c[0], c[1], c[2])
			}
		})
		step := stepX(l)
		pencils := coords[:4096]
		b.layers["core.step_ns."+name] = 1e9 / float64(len(pencils)*(orbitN-1)) * timeMedian(5, func() {
			for _, p := range pencils {
				idx := l.Index(0, p[1], p[2])
				for i := 0; i < orbitN-1; i++ {
					idx = step(idx, i)
				}
				sink += idx
			}
		})
	}
	if sink == 42 {
		fmt.Fprintln(io.Discard, sink)
	}

	// Generators, then one frame per render layout × view kind and one
	// bilateral r1 pass per filter layout at 128³, one worker each.
	var plume, mri *grid.Grid[float32]
	b.layers["volume.plume_ms"] = 1e3 * timeMedian(1, func() { plume = volume.CombustionPlume(layoutFor("array", serveN), b.cfg.seed) })
	b.layers["volume.mri_ms"] = 1e3 * timeMedian(1, func() { mri = volume.MRIPhantom(layoutFor("array", serveN), b.cfg.seed, 0.02) })
	var err error
	tf := render.DefaultTransferFunc()
	for _, l := range renderLayouts {
		g := plume
		if l != "array" {
			if g, err = plume.Relayout(layoutFor(l, serveN)); err != nil {
				return err
			}
		}
		for view, kind := range []string{"aligned", "oblique"} {
			cam := render.Orbit(view, orbitViews, serveN, serveN, serveN, frameEdge, frameEdge)
			b.layers["render.ms."+l+"."+kind] = 1e3 * timeMedian(3, func() { _, err = render.Render(g, cam, tf, render.Options{Workers: 1}) })
			if err != nil {
				return err
			}
		}
		plume = g // ends in Z order, the served layout
	}
	taps := float64(serveN*serveN*serveN) * 27
	for _, l := range filterLayouts {
		src := mri
		if l != "array" {
			if src, err = mri.Relayout(layoutFor(l, serveN)); err != nil {
				return err
			}
		}
		dst := grid.New(layoutFor(l, serveN))
		clear(dst.Data())
		b.layers["filter.ns_per_tap."+l] = 1e9 / taps * timeMedian(1, func() { err = filter.Apply(src, dst, filter.Options{Radius: 1, Workers: 1}) })
		if err != nil {
			return err
		}
		if l == "zorder" {
			mri = src
		}
	}
	// mri is now in Z order, the served layout.
	mriAny := sfcmem.WrapAny(mri)
	b.layers["grid.convert_ms"] = 1e3 * timeMedian(3, func() { mriAny.Convert(grid.U8) })
	small := volume.MRIPhantom(layoutFor("zorder", tuneN), b.cfg.seed, 0.02)
	b.layers["grid.relayout_ms"] = 1e3 * timeMedian(5, func() { _, err = small.Relayout(layoutFor("bit", tuneN)) })
	if err != nil {
		return err
	}
	zl := func(nx, ny, nz int) core.Layout { return core.New(core.ZKind, nx, ny, nz) }
	b.layers["multires.subsample_ms"] = 1e3 * timeMedian(3, func() { _, err = sfcmem.SubsampleAny(mriAny, 2, zl) })
	if err != nil {
		return err
	}

	// One pass each with scheduling statistics: the work items (tiles,
	// pencils) the parallel layer hands out. Runs are pinned to one CPU,
	// so busy-time balance across workers would measure nothing.
	var rs, fs parallel.Stats
	cam := render.Orbit(1, 8, serveN, serveN, serveN, frameEdge, frameEdge)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	img, err := render.Render(plume, cam, render.DefaultTransferFunc(), render.Options{Workers: 1, Stats: &rs})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	b.layers["render.png_ms"] = 1e3 * timeMedian(5, func() { err = img.WritePNG(io.Discard) })
	if err != nil {
		return err
	}
	b.layers["runtime.alloc_mb_per_op.render"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	dst := grid.New(layoutFor("zorder", serveN))
	runtime.ReadMemStats(&m0)
	if err := filter.Apply(mri, dst, filter.Options{Radius: 1, Workers: 1, Stats: &fs}); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	b.layers["runtime.alloc_mb_per_op.filter"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	b.layers["parallel.items.render"] = float64(rs.Items)
	b.layers["parallel.items.filter"] = float64(fs.Items)

	if err := b.simProbes(); err != nil {
		return err
	}
	if err := b.storeProbes(mri); err != nil {
		return err
	}

	c := rcache.New(1 << 20)
	c.Put("k", rcache.Value{Body: []byte("frame")})
	const nHit = 100000
	ctx := context.Background()
	b.layers["rcache.hit_ns"] = 1e9 / nHit * timeMedian(3, func() {
		for i := 0; i < nHit; i++ {
			c.Do(ctx, "k", func(context.Context) (rcache.Value, error) { return rcache.Value{}, nil })
		}
	})
	hub := obs.NewHub(io.Discard, 0)
	hdr := http.Header{}
	stages := []string{"decode", "digest", "cache", "resolve", "admission.queue", "admission.slot", "kernel", "encode"}
	const nEnv = 2000
	b.layers["obs.envelope_us"] = 1e6 / nEnv * timeMedian(3, func() {
		for i := 0; i < nEnv; i++ {
			t, _ := hub.Start(ctx, "render", hdr)
			for _, s := range stages {
				t.Stage(s)()
			}
			hub.Finish(t, 200, 0, "miss")
		}
	})
	return nil
}

// stepX returns the layout's +x neighbor step (the stepping fast path's
// inner operation); i is the current x coordinate.
func stepX(l core.Layout) func(idx, i int) int {
	switch t := l.(type) {
	case *core.ZOrder:
		return func(idx, _ int) int { return t.StepX(idx) }
	case *core.ZTiled:
		return t.StepX
	case *core.BitLayout:
		return func(idx, _ int) int { return t.StepX(idx) }
	}
	sx := core.StepSpecFor(l).Sx
	return func(idx, _ int) int { return idx + sx }
}

// simProbes replays bilateral r1 and a 64² frame at 32³ through the
// IvyBridge hierarchy scaled down 32× (the autotuner's fitness setup,
// so the small volume spills the caches as a large one would), one
// thread, per layout: exact counts.
func (b *bench) simProbes() error {
	var accesses uint64
	var simTime time.Duration
	for _, k := range []string{"bilateral", "render"} {
		for _, name := range filterLayouts {
			l := layoutFor(name, tuneN)
			sys := cache.NewSystem(cache.Scaled(cache.IvyBridge(), 32), 1)
			t0 := time.Now()
			if k == "bilateral" {
				src := volume.MRIPhantom(l, b.cfg.seed, 0.02)
				dst := grid.New(layoutFor("array", tuneN))
				if err := filter.ApplyViews([]grid.Reader{grid.NewTraced(src, 0, sys.Front(0))},
					[]grid.Writer{grid.NewTraced(dst, 1<<40, sys.Front(0))}, filter.Options{Radius: 1, Workers: 1}); err != nil {
					return err
				}
			} else {
				vol := volume.CombustionPlume(l, b.cfg.seed)
				cam := render.Orbit(1, 8, tuneN, tuneN, tuneN, 64, 64)
				if _, err := render.RenderViews([]grid.Reader{grid.NewTraced(vol, 0, sys.Front(0))}, cam,
					render.DefaultTransferFunc(), render.Options{Workers: 1}); err != nil {
					return err
				}
			}
			simTime += time.Since(t0)
			rep := sys.Report()
			b.layers["cache.sim_l1_misses."+k+"."+name] = float64(rep.PrivateTotal[0].Misses)
			b.layers["cache.sim_mem_reads."+k+"."+name] = float64(rep.MemReads)
			accesses += rep.PrivateTotal[0].Accesses
		}
	}
	b.layers["cache.sim_maccess_per_s"] = float64(accesses) / 1e6 / simTime.Seconds()
	return nil
}

// storeProbes times the tiered store on a temp dir: a Put of a 128³
// float32 volume, a cold Get from a freshly opened store, warm Gets.
func (b *bench) storeProbes(g *grid.Grid[float32]) error {
	vol := sfcmem.WrapAny(g)
	mb := float64(vol.Bytes()) / (1 << 20)
	var puts, colds []float64
	for rep := 0; rep < 3; rep++ {
		dir := b.path(fmt.Sprintf("store-probe-%d", rep))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := s.Put(&store.Volume{Name: "p", Dataset: "probe", Layout: "zorder", Grid: vol}); err != nil {
			return err
		}
		puts = append(puts, time.Since(t0).Seconds())
		cold, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := cold.Get("p"); err != nil {
			return err
		}
		colds = append(colds, time.Since(t0).Seconds())
		if rep == 0 {
			const nGet = 100000
			b.layers["store.warm_get_ns"] = 1e9 / nGet * timeMedian(3, func() {
				for i := 0; i < nGet; i++ {
					cold.Get("p")
				}
			})
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	b.layers["store.put_mb_s"] = mb / median(puts)
	b.layers["store.cold_get_mb_s"] = mb / median(colds)
	return nil
}
