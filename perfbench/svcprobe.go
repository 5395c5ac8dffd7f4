package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"

	"sfcmem/internal/volume"
)

// The service probe's sizes: two 64³ float32 volumes (1 MiB each) behind
// a RAM tier that holds one of them, so renders that alternate between
// the two demand-load every time.
const (
	probeN    = 64
	probeReps = 6 // requests per render class
	probeRAM  = probeN*probeN*probeN*4 + 256<<10
	probeDst  = "probe-dst"
)

func probeVol(i int) string { return fmt.Sprintf("p%d", i) }

// tuneResult is the result event of a /tune job.
type tuneResult struct {
	Layout       string  `json:"layout"`
	TunedMisses  float64 `json:"tuned_misses"`
	ZOrderMisses float64 `json:"zorder_misses"`
	Candidates   float64 `json:"candidates"`
	Applied      bool    `json:"applied"`
}

func parseTuneResult(evs []sseEvent) (tuneResult, error) {
	var res tuneResult
	for _, e := range evs {
		if e.typ == "result" {
			return res, json.Unmarshal(e.data, &res)
		}
	}
	return res, fmt.Errorf("tune job ended without a result event")
}

// serviceProbe drives a fresh sfcserved (disk-backed store, response
// cache on) through one fixed sequence that reaches every request class
// and returns each class's server stage self times. It runs the same
// way in every workload's traced run, so the sfcserved, store, jobs and
// tune per-layer timings exist for every workload, kernels included:
//
//	4 uploads, alternating the two volumes
//	6 cold renders (float32), alternating, each confirmed by store.loads
//	6 render misses (uint8) of the resident volume, fresh views
//	6 hits on the last of them, byte-checked
//	3 bilateral filters of the resident volume
//	2 render jobs, 1 applied tune of a 32³ volume
//	50 GET /healthz
func (b *bench) serviceProbe() (stageSet, error) {
	dir := b.path("probe-data")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	svc, err := startService(b.cfg.serverBin, b.path("probe.log"),
		"-data-dir", dir, "-store-ram-bytes", fmt.Sprint(probeRAM), "-cache-bytes", fmt.Sprint(64<<20))
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	st := stageSet{}
	sample := func(class, route string, r *reply, kernelS float64) error {
		s, err := stageTimes(svc, route, r, kernelS)
		if err != nil {
			return fmt.Errorf("%s: %w", class, err)
		}
		st.add(class, s)
		return nil
	}

	if _, _, err := svc.upload(tuneName, rawBytes(volume.MRIPhantom(layoutFor("array", tuneN), b.cfg.seed, 0.02)), tuneN); err != nil {
		return nil, err
	}
	var vols [2][]byte
	for i := range vols {
		vols[i] = rawBytes(volume.CombustionPlume(layoutFor("array", probeN), b.cfg.seed*2+uint64(i)))
	}
	for i := 0; i < 4; i++ {
		r, _, err := svc.upload(probeVol(i%2), vols[i%2], probeN)
		if err != nil {
			return nil, err
		}
		if err := sample("upload", "volumes", r, 0); err != nil {
			return nil, err
		}
	}

	// classify sends a render and checks the class the server put it
	// in: X-Cache, and a store.loads delta for a cold render.
	classify := func(key renderBody, want string) (*reply, error) {
		before, err := svc.scrape()
		if err != nil {
			return nil, err
		}
		r, err := svc.postJSON("/render", key, nil)
		if err != nil {
			return nil, err
		}
		after, err := svc.scrape()
		if err != nil {
			return nil, err
		}
		class := cacheClass("render", r.header)
		if class == "render_miss" && loadClass(before, after) == "cold_render" {
			class = "cold_render"
		}
		if r.status != http.StatusOK || class != want {
			return nil, fmt.Errorf("render %s: status %d, class %s, want %s", key.Volume, r.status, class, want)
		}
		return r, sample(class, "render", r, 0)
	}
	// The last upload left volume 1 resident, so the alternation starts
	// with volume 0 and ends with volume 1 resident.
	view := 0
	key := func(vol int, dtype string) renderBody {
		view++
		return renderBody{Volume: probeVol(vol), View: view, Views: orbitSlots, Width: frameEdge, Height: frameEdge, Workers: 1, Dtype: dtype}
	}
	for i := 0; i < probeReps; i++ {
		if _, err := classify(key(i%2, ""), "cold_render"); err != nil {
			return nil, err
		}
	}
	var last renderBody
	var first []byte
	for i := 0; i < probeReps; i++ {
		last = key(1, "uint8")
		r, err := classify(last, "render_miss")
		if err != nil {
			return nil, err
		}
		first = r.body
	}
	for i := 0; i < probeReps; i++ {
		r, err := classify(last, "render_hit")
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(r.body, first) {
			return nil, fmt.Errorf("hit on %s differs from its miss", last.Volume)
		}
	}

	for i := 0; i < 3; i++ {
		req := map[string]any{"src": probeVol(1), "dst": probeDst, "kernel": "bilateral", "radius": 1,
			"axis": "x", "sigma_range": 0.1 + 1e-4*float64(i), "workers": 1}
		r, err := svc.postJSON("/filter", req, nil)
		if err != nil {
			return nil, err
		}
		var out struct {
			Seconds float64 `json:"seconds"`
		}
		if r.status != http.StatusOK || json.Unmarshal(r.body, &out) != nil {
			return nil, fmt.Errorf("filter: status %d body %s", r.status, tail(string(r.body), 200))
		}
		if err := sample("filter", "filter", r, out.Seconds); err != nil {
			return nil, err
		}
	}

	for i := 0; i < 2; i++ {
		if _, _, _, err := svc.submitJob("/jobs", map[string]any{"op": "render", "render": last}, "coarse"); err != nil {
			return nil, err
		}
	}
	req := map[string]any{"kernel": "bilateral", "seed": b.cfg.seed, "population": tunePop, "generations": tuneGens, "workers": 1}
	evs, _, _, err := svc.submitJob("/volumes/"+tuneName+"/tune", req, "result")
	if err != nil {
		return nil, err
	}
	res, err := parseTuneResult(evs)
	if err != nil {
		return nil, err
	}
	if !res.Applied {
		return nil, fmt.Errorf("tune of %s not applied", tuneName)
	}
	b.layers["tune.candidates"], b.layers["tune.tuned_misses"], b.layers["tune.zorder_misses"] = res.Candidates, res.TunedMisses, res.ZOrderMisses
	js, err := jobStageTimes(svc, svc.lastTrace)
	if err != nil {
		return nil, err
	}
	b.layers["tune.search_ms"] = 1e3 * js["tune.search"]
	b.layers["tune.relayout_ms"] = 1e3 * js["tune.relayout"]

	var hz []float64
	for i := 0; i < 50; i++ {
		r, err := svc.do("GET", svc.api+"/healthz", nil, nil)
		if err != nil {
			return nil, err
		}
		if r.status != http.StatusOK {
			return nil, fmt.Errorf("healthz: status %d", r.status)
		}
		hz = append(hz, r.latency.Seconds())
	}
	b.layers["client.healthz_us"] = median(hz) * 1e6

	m, err := svc.scrape()
	if err != nil {
		return nil, err
	}
	for name, h := range map[string]string{"store.load_mean_ms": "store.load_latency", "jobs.ttfb_mean_ms": "jobs.ttfb"} {
		if m[h+".count"] == 0 {
			return nil, fmt.Errorf("%s: no samples in %s", name, h)
		}
		b.layers[name] = 1e3 * m[h+".sum_s"] / m[h+".count"]
	}
	return st, nil
}
