package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"time"

	"sfcmem/internal/volume"
)

const (
	churnVolumes = 6 // 128³ float32 volumes, 8 MiB each
	// churnRAM holds three of them (plus the small tuned volume), so
	// the round-robin render order always finds its target evicted.
	churnRAM = 3*serveN*serveN*serveN*4 + 1<<20
	tuneN    = 32
	tuneName = "t32"
	// tunePop and tuneGens size the search: one generation of four
	// past the structured seeds.
	tunePop   = 4
	tuneGens  = 1
	filterDst = "dst"
)

// cOp is one op of the serve-churn schedule; targets are chosen when
// it runs, from the round-robin state.
type cOp struct{ class string } // "upload", "render", "filter", "tune"

// churnRound is 4 uploads, 8 renders, 1 filter and 1 tune, shuffled
// by the seed: the slot classes (cold renders, uploads) get most of
// the ops, the slow filter and tune keep writes interleaved.
func churnRound(rng *rand.Rand) []cOp {
	var ops []cOp
	for i := 0; i < 4; i++ {
		ops = append(ops, cOp{"upload"}, cOp{"render"}, cOp{"render"})
	}
	ops = append(ops, cOp{"filter"}, cOp{"tune"})
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

type churn struct {
	b        *bench
	svc      *service
	bodies   [][]byte          // upload payloads, one per volume
	gens     map[string]uint64 // last generation seen per volume
	next     int               // round-robin render pointer
	last     int               // most recently rendered volume
	uploads  int
	views    int
	filters  int
	tuneRef  []byte // the tuned volume's frame before any tune
	tuneBody []byte // its upload payload
}

func volName(i int) string { return fmt.Sprintf("c%d", i) }

func (b *bench) setupChurn(rep int) (*service, [][]byte, []byte, error) {
	dir := b.path(fmt.Sprintf("churn-data-%d", rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, nil, err
	}
	svc, err := startService(b.cfg.serverBin, b.path(fmt.Sprintf("churn-%d.log", rep)),
		"-data-dir", dir, "-store-ram-bytes", fmt.Sprint(churnRAM), "-cache-bytes", fmt.Sprint(256<<20))
	if err != nil {
		return nil, nil, nil, err
	}
	var bodies [][]byte
	for i := 0; i < churnVolumes; i++ {
		end := b.rec.begin("volume", "mri", "")
		g := volume.MRIPhantom(layoutFor("array", serveN), b.cfg.seed*16+uint64(i), 0.02)
		end()
		body := rawBytes(g)
		if _, _, err := svc.upload(volName(i), body, serveN); err != nil {
			svc.stop()
			return nil, nil, nil, err
		}
		bodies = append(bodies, body)
	}
	tb := rawBytes(volume.MRIPhantom(layoutFor("array", tuneN), b.cfg.seed, 0.02))
	if _, _, err := svc.upload(tuneName, tb, tuneN); err != nil {
		svc.stop()
		return nil, nil, nil, err
	}
	return svc, bodies, tb, nil
}

func runChurn(b *bench) error {
	var svc *service
	var bodies [][]byte
	var tb []byte
	for r := 0; r < serveSetupReps; r++ {
		runtime.GC()
		b.setups.calibrate()
		t0 := time.Now()
		var err error
		if svc, bodies, tb, err = b.setupChurn(r); err != nil {
			return err
		}
		b.setups.add(time.Since(t0))
		if r < serveSetupReps-1 {
			if err := svc.stop(); err != nil {
				return err
			}
		}
	}
	defer svc.stop()
	w := &churn{b: b, svc: svc, bodies: bodies, tuneBody: tb}
	var err error
	if w.gens, err = svc.generations(); err != nil {
		return err
	}
	r, err := svc.postJSON("/render", w.tuneKey(), nil)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("render %s: status %d", tuneName, r.status)
	}
	w.tuneRef = r.body

	// Warm-up: one of each op.
	rng := rand.New(rand.NewPCG(b.cfg.seed, 0xc4e2))
	for _, op := range []cOp{{"render"}, {"upload"}, {"filter"}, {"render"}, {"tune"}} {
		class, err := w.op(op)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", class, err)
		}
	}
	b.dropSamples()
	runtime.GC()

	round := func(_ int, rng *rand.Rand) []cOp { return churnRound(rng) }
	done := func(el time.Duration) bool { return el.Seconds() >= b.cfg.seconds }
	timed, err := closedLoop(b, svc, rng, round, w.op, nil, done)
	if err != nil {
		return err
	}
	return b.finish(timed, svc.pid(), churnMetrics)
}

func (w *churn) tuneKey() renderBody {
	return renderBody{Volume: tuneName, View: 3, Views: 8, Width: 64, Height: 64, Workers: 1}
}

func (w *churn) op(op cOp) (string, error) {
	b, svc := w.b, w.svc
	switch op.class {
	case "render":
		// The round-robin target was rendered churnVolumes renders ago,
		// so it has been evicted; the store.loads delta confirms it.
		i := w.next
		w.next = (w.next + 1) % churnVolumes
		w.last = i
		key := renderBody{Volume: volName(i), View: int((b.cfg.seed*7919 + uint64(w.views)*viewStride) % orbitSlots),
			Views: orbitSlots, Width: frameEdge, Height: frameEdge, Workers: 1}
		w.views++
		before, err := svc.scrape()
		if err != nil {
			return "cold_render", err
		}
		r, err := svc.postJSON("/render", key, nil)
		if err != nil {
			return "cold_render", err
		}
		after, err := svc.scrape()
		if err != nil {
			return "cold_render", err
		}
		class := loadClass(before, after)
		if r.status != http.StatusOK || r.header.Get("X-Cache") != "miss" {
			return class, fmt.Errorf("render %s: status %d X-Cache %q", key.Volume, r.status, r.header.Get("X-Cache"))
		}
		b.sample(class, r.latency)
		b.serverSample(svc, class, "render", r, 0)
		return class, nil
	case "upload":
		// A new generation of the volume rendered last (resident), with
		// another volume's payload.
		i := w.last
		w.uploads++
		name := volName(i)
		r, gen, err := svc.upload(name, w.bodies[(i+w.uploads)%churnVolumes], serveN)
		if err != nil {
			return "upload", err
		}
		gens, err := svc.generations()
		if err != nil {
			return "upload", err
		}
		if gen <= w.gens[name] || gens[name] != gen {
			return "upload", fmt.Errorf("PUT %s: generation %d after %d, listing shows %d", name, gen, w.gens[name], gens[name])
		}
		w.gens[name] = gen
		b.sample("upload", r.latency)
		b.serverSample(svc, "upload", "volumes", r, 0)
		return "upload", nil
	case "filter":
		// Bilateral r1 px of the resident volume rendered last; the
		// sigma moves each time so the response cache never answers.
		w.filters++
		req := map[string]any{"src": volName(w.last), "dst": filterDst, "kernel": "bilateral", "radius": 1,
			"axis": "x", "sigma_range": 0.1 + 1e-4*float64(w.filters), "workers": 1}
		r, err := svc.postJSON("/filter", req, nil)
		if err != nil {
			return "filter", err
		}
		var out struct {
			Volume  string  `json:"volume"`
			Dtype   string  `json:"dtype"`
			Seconds float64 `json:"seconds"` // the server's kernel time
		}
		if r.status != http.StatusOK || json.Unmarshal(r.body, &out) != nil || out.Volume != filterDst || out.Dtype != "float32" {
			return "filter", fmt.Errorf("filter: status %d body %s", r.status, tail(string(r.body), 200))
		}
		class := "filter"
		if c := cacheClass("filter", r.header); c != "filter_miss" {
			class = c
		}
		b.sample(class, r.latency)
		b.serverSample(svc, class, "filter", r, out.Seconds)
		return class, nil
	default: // tune: bulk-lane search + relayout, then the frame must not change
		// Reset the volume to Z order first, so every tune re-lays it out.
		if _, _, err := svc.upload(tuneName, w.tuneBody, tuneN); err != nil {
			return "tune", err
		}
		req := map[string]any{"kernel": "bilateral", "seed": b.cfg.seed, "population": tunePop, "generations": tuneGens, "workers": 1}
		evs, _, total, err := svc.submitJob("/volumes/"+tuneName+"/tune", req, "result")
		if err != nil {
			return "tune", err
		}
		res, err := parseTuneResult(evs)
		if err != nil {
			return "tune", err
		}
		if !res.Applied {
			return "tune", fmt.Errorf("tune of %s not applied", tuneName)
		}
		b.sample("tune", total)
		r, err := svc.postJSON("/render", w.tuneKey(), nil)
		if err == nil && (r.status != http.StatusOK || !bytes.Equal(r.body, w.tuneRef)) {
			err = fmt.Errorf("%s renders differently after relayout to %s", tuneName, res.Layout)
		}
		b.tally("tuned_render", err)
		return "tune", nil
	}
}

// loadClass tells a render that demand-loaded its volume (the server's
// store.loads counter moved across it) from one that found it resident.
func loadClass(before, after map[string]float64) string {
	if after["store.loads"] > before["store.loads"] {
		return "cold_render"
	}
	return "warm_render"
}

// churnMetrics: primary_ms is the cold-render p50, secondary_ms the
// upload p50; the filter and tune timings are shown in the table.
func churnMetrics(b *bench, s map[string][]float64, _ bool) error {
	b.putSlot("primary_ms", "cold_render p50", s["cold_render"])
	b.putSlot("secondary_ms", "upload p50", s["upload"])
	b.noteMedian("filter_p50_ms", s["filter"])
	b.noteMedian("tune_p50_ms", s["tune"])
	return nil
}
