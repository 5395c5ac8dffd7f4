package main

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"time"

	"sfcmem/internal/grid"
	"sfcmem/internal/render"
	"sfcmem/internal/volume"
)

const (
	serveN     = 128  // edge of every served volume
	frameEdge  = 128  // served frame edge
	orbitSlots = 4096 // views on the served orbit; each miss takes a fresh one
	viewStride = 1237 // odd, so successive keys walk the whole orbit
	minMisses  = 100  // p90 needs ten samples beyond it
	// jobLingerMS is sfcserved's default -job-linger: how long a job
	// batch waits for company before it runs.
	jobLingerMS = 25
)

// iOp is one op of the serve-interactive schedule.
type iOp struct {
	class string // "miss", "hit", "revalidate", "job"
	dtype string // miss only
	pick  int    // hit/revalidate/job: index into the served keys (mod len)
}

// interactiveRound is one round of the closed loop: 8 misses (6 uint8,
// 2 float32), 8 hits, 4 revalidations and one render job, in an order
// shuffled by the seed.
func interactiveRound(rng *rand.Rand) []iOp {
	var ops []iOp
	for i := 0; i < 8; i++ {
		dt := "uint8"
		if i >= 6 {
			dt = "float32"
		}
		ops = append(ops, iOp{class: "miss", dtype: dt})
	}
	for i := 0; i < 8; i++ {
		ops = append(ops, iOp{class: "hit", pick: rng.IntN(1 << 30)})
	}
	for i := 0; i < 4; i++ {
		ops = append(ops, iOp{class: "revalidate", pick: rng.IntN(1 << 30)})
	}
	ops = append(ops, iOp{class: "job", pick: rng.IntN(1 << 30)})
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// rawBytes is g's samples as a little-endian, row-major upload body; g
// must be in array order.
func rawBytes(g *grid.Grid[float32]) []byte {
	d := g.Data()
	out := make([]byte, 4*len(d))
	for i, f := range d {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(f))
	}
	return out
}

// upload PUTs a float32 volume and returns its new generation.
func (s *service) upload(name string, body []byte, n int) (*reply, uint64, error) {
	r, err := s.do("PUT", fmt.Sprintf("%s/volumes/%s?dtype=float32&layout=zorder&nx=%d&ny=%d&nz=%d", s.api, name, n, n, n), body, nil)
	if err != nil {
		return nil, 0, err
	}
	if r.status != http.StatusCreated {
		return r, 0, fmt.Errorf("PUT %s: status %d: %s", name, r.status, tail(string(r.body), 200))
	}
	var info struct {
		Gen uint64 `json:"gen"`
	}
	err = json.Unmarshal(r.body, &info)
	return r, info.Gen, err
}

// generations lists GET /volumes as name → generation.
func (s *service) generations() (map[string]uint64, error) {
	r, err := s.do("GET", s.api+"/volumes", nil, nil)
	if err != nil {
		return nil, err
	}
	var list []struct {
		Name string `json:"name"`
		Gen  uint64 `json:"gen"`
	}
	if err := json.Unmarshal(r.body, &list); err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, v := range list {
		out[v.Name] = v.Gen
	}
	return out, nil
}

type renderBody struct {
	Volume  string `json:"volume"`
	View    int    `json:"view"`
	Views   int    `json:"views"`
	Width   int    `json:"width"`
	Height  int    `json:"height"`
	Workers int    `json:"workers"`
	Dtype   string `json:"dtype,omitempty"`
}

// servedKey is a render key the service has answered, with the first
// response's ETag and bytes, against which every repeat is checked.
type servedKey struct {
	req  renderBody
	etag string
	body []byte
}

func missKey(k int, seed uint64, dtype string) renderBody {
	view := int((seed*7919 + uint64(k)*viewStride) % orbitSlots)
	return renderBody{Volume: fmt.Sprintf("vol%d", k%2), View: view, Views: orbitSlots,
		Width: frameEdge, Height: frameEdge, Workers: 1, Dtype: dtype}
}

type interactive struct {
	b      *bench
	svc    *service
	served []servedKey
	keys   int // misses issued so far
}

// setupInteractive starts the service and uploads two 128³ plumes.
func (b *bench) setupInteractive(log string) (*service, [][]byte, error) {
	svc, err := startService(b.cfg.serverBin, b.path(log), "-cache-bytes", fmt.Sprint(256<<20))
	if err != nil {
		return nil, nil, err
	}
	var bodies [][]byte
	for v := 0; v < 2; v++ {
		end := b.rec.begin("volume", "plume", "")
		g := volume.CombustionPlume(layoutFor("array", serveN), b.cfg.seed*2+uint64(v))
		end()
		body := rawBytes(g)
		if _, _, err := svc.upload(fmt.Sprintf("vol%d", v), body, serveN); err != nil {
			svc.stop()
			return nil, nil, err
		}
		bodies = append(bodies, body)
	}
	return svc, bodies, nil
}

// libraryPNG renders key with the library over the uploaded bytes laid
// out as the service stores them, and encodes it as the service does.
func libraryPNG(body []byte, key renderBody) ([]byte, error) {
	g := grid.New(layoutFor("array", serveN))
	d := g.Data()
	for i := range d {
		d[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	z, err := g.Relayout(layoutFor("zorder", serveN))
	if err != nil {
		return nil, err
	}
	cam := render.Orbit(key.View, key.Views, serveN, serveN, serveN, key.Width, key.Height)
	img, err := render.Render(z, cam, render.DefaultTransferFunc(), render.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = img.WritePNG(&buf)
	return buf.Bytes(), err
}

func runInteractive(b *bench) error {
	var svc *service
	var bodies [][]byte
	for r := 0; r < serveSetupReps; r++ {
		runtime.GC()
		b.setups.calibrate()
		t0 := time.Now()
		var err error
		if svc, bodies, err = b.setupInteractive(fmt.Sprintf("interactive-%d.log", r)); err != nil {
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
	w := &interactive{b: b, svc: svc}

	// Service vs library: the first served frame (a float32 key, so no
	// dtype conversion) must equal the library's frame of the same bytes.
	ref := missKey(0, b.cfg.seed, "")
	want, err := libraryPNG(bodies[0], ref)
	if err != nil {
		return err
	}
	r, err := svc.postJSON("/render", ref, nil)
	if err == nil && !bytes.Equal(r.body, want) {
		err = fmt.Errorf("service PNG for %+v differs from the library render", ref)
	}
	b.tally("setup_check", err)

	// Warm-up: misses to seed the served set, then one of each repeat.
	rng := rand.New(rand.NewPCG(b.cfg.seed, 0x1a7e))
	for _, op := range []iOp{{class: "miss", dtype: "uint8"}, {class: "miss", dtype: "float32"}, {class: "miss", dtype: "uint8"},
		{class: "miss", dtype: "uint8"}, {class: "hit"}, {class: "revalidate"}, {class: "job"}} {
		if _, err := w.op(op); err != nil {
			return fmt.Errorf("warm-up %s: %w", op.class, err)
		}
	}
	b.dropSamples()
	runtime.GC()

	round := func(_ int, rng *rand.Rand) []iOp { return interactiveRound(rng) }
	done := func(el time.Duration) bool {
		return el.Seconds() >= b.cfg.seconds && len(b.samples[0]["render_miss"])+len(b.samples[1]["render_miss"]) >= minMisses
	}
	timed, err := closedLoop(b, svc, rng, round, w.op, nil, done)
	if err != nil {
		return err
	}
	return b.finish(timed, svc.pid(), interactiveMetrics)
}

// op runs one schedule op and returns the class the response put it in.
func (w *interactive) op(op iOp) (string, error) {
	switch op.class {
	case "miss":
		key := missKey(w.keys, w.b.cfg.seed, op.dtype)
		w.keys++
		r, err := w.svc.postJSON("/render", key, nil)
		if err != nil {
			return "render_miss", err
		}
		class := cacheClass("render", r.header)
		if r.status != http.StatusOK {
			return class, fmt.Errorf("render: status %d", r.status)
		}
		w.b.sample(class, r.latency)
		w.b.serverSample(w.svc, class, "render", r, 0)
		w.served = append(w.served, servedKey{req: key, etag: r.header.Get("ETag"), body: r.body})
		return class, nil
	case "hit":
		k := w.served[op.pick%len(w.served)]
		r, err := w.svc.postJSON("/render", k.req, nil)
		if err != nil {
			return "render_hit", err
		}
		class := cacheClass("render", r.header)
		if r.status == http.StatusOK && bytes.Equal(r.body, k.body) {
			w.b.sample(class, r.latency)
			w.b.serverSample(w.svc, class, "render", r, 0)
			return class, nil
		}
		return class, fmt.Errorf("repeat of %s: status %d, body equal %v", k.etag, r.status, bytes.Equal(r.body, k.body))
	case "revalidate":
		k := w.served[op.pick%len(w.served)]
		r, err := w.svc.postJSON("/render", k.req, map[string]string{"If-None-Match": k.etag})
		if err != nil {
			return "revalidate", err
		}
		if r.status != http.StatusNotModified || r.header.Get("ETag") != k.etag {
			return "revalidate", fmt.Errorf("If-None-Match %s: status %d etag %s", k.etag, r.status, r.header.Get("ETag"))
		}
		w.b.sample("revalidate", r.latency)
		return "revalidate", nil
	default: // job: the same key as a served frame, watched to done
		k := w.served[op.pick%len(w.served)]
		evs, first, total, err := w.svc.submitJob("/jobs", map[string]any{"op": "render", "render": k.req}, "coarse")
		if err != nil {
			return "job", err
		}
		for _, e := range evs {
			if e.typ != "refined" {
				continue
			}
			var fe struct {
				Frame string `json:"frame"`
			}
			if err := json.Unmarshal(e.data, &fe); err != nil {
				return "job", err
			}
			frame, err := base64.StdEncoding.DecodeString(fe.Frame)
			if err != nil || !bytes.Equal(frame, k.body) {
				return "job", fmt.Errorf("job refined frame differs from the first response for %s", k.etag)
			}
			w.b.sample("job_first_frame", first)
			w.b.sample("job_done", total)
			return "job", nil
		}
		return "job", fmt.Errorf("job ended without a refined frame")
	}
}

// cacheClass puts a response in its class by what the server did, not
// what the driver meant: render_miss, render_hit, ...
func cacheClass(route string, h http.Header) string {
	if x := h.Get("X-Cache"); x != "" {
		return route + "_" + x
	}
	return route + "_uncached"
}

// interactiveMetrics: primary_ms is the render-miss p50, secondary_ms
// the render-hit p50; the miss p90 and the job timings are shown in
// the table.
func interactiveMetrics(b *bench, s map[string][]float64, strict bool) error {
	b.putSlot("primary_ms", "render_miss p50", s["render_miss"])
	b.putSlot("secondary_ms", "render_hit p50", s["render_hit"])
	if err := b.notePercentile("render_miss_p90_ms", s["render_miss"], 90); err != nil && strict {
		return err
	}
	b.noteMedian("job_first_frame_p50_ms", s["job_first_frame"])
	b.noteMedian("job_done_p50_ms", s["job_done"])
	return nil
}
