package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"sfcmem"
	"sfcmem/internal/store"
)

// TestPreparedVolumeReuse is the prepared-volume acceptance scenario,
// run under -race by `make race`: renders of one stored generation at
// one dtype share a single conversion and a single empty-space map
// build, a PUT makes exactly one more of each, a float32 render of a
// float32 volume never copies it, and DELETE drops what was prepared.
func TestPreparedVolumeReuse(t *testing.T) {
	sink := &logSink{}
	cfg := testConfig()
	cfg.accessLog = sink
	cfg.queueDepth = 16 // room for every concurrent miss
	a, _, _ := startApp(t, cfg)
	api := "http://" + a.apiAddr()
	st := a.srv.store.(*store.Store)

	// renders runs one render per view concurrently; each is a miss.
	renders := func(dtype string, views ...int) {
		t.Helper()
		var wg sync.WaitGroup
		for _, v := range views {
			wg.Add(1)
			go func(view int) {
				defer wg.Done()
				resp := postJSON(t, api+"/render", renderRequest{Volume: "pv", View: view, Views: 64, Width: 32, Height: 32, Workers: 1, Dtype: dtype})
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
					t.Errorf("%s view %d: status %d, X-Cache %q", dtype, view, resp.StatusCode, resp.Header.Get("X-Cache"))
				}
			}(v)
		}
		wg.Wait()
	}
	check := func(when string, builds, hits uint64, resolve, accel int) {
		t.Helper()
		if got := a.srv.preparedBuilds.Total(); got != builds {
			t.Errorf("%s: render.prepared.builds = %d, want %d", when, got, builds)
		}
		if got := a.srv.preparedHits.Total(); got != hits {
			t.Errorf("%s: render.prepared.hits = %d, want %d", when, got, hits)
		}
		if r, ac := spanCount(a, "render", "resolve"), spanCount(a, "render", "accel"); r != resolve || ac != accel {
			t.Errorf("%s: %d resolve and %d accel spans, want %d and %d", when, r, ac, resolve, accel)
		}
	}

	putPlume(t, api, "pv")
	renders("uint8", 0, 1, 2, 3, 4, 5, 6, 7)
	check("8 uint8 misses", 1, 7, 1, 1)
	vol, err := st.Get("pv")
	if err != nil {
		t.Fatal(err)
	}
	u8, err := a.srv.prepare(nil, vol, sfcmem.U8)
	if err != nil {
		t.Fatal(err)
	}
	if u8.grid.Dtype() != sfcmem.U8 || u8.accel.EmptyFraction() == 0 {
		t.Fatalf("uint8 prepared volume: dtype %v, %.0f%% empty", u8.grid.Dtype(), 100*u8.accel.EmptyFraction())
	}
	if got, want := st.ResidentBytes(), residentVolumeBytes(st)+u8.grid.Bytes()+u8.accel.Bytes(); got != want {
		t.Errorf("resident bytes %d, want %d: the converted view must count against the RAM tier", got, want)
	}

	renders("float32", 8)
	check("a float32 miss", 2, 8, 1, 2)
	f32, err := a.srv.prepare(nil, vol, sfcmem.F32)
	if err != nil {
		t.Fatal(err)
	}
	if f32.grid != vol.Grid {
		t.Error("float32 prepared volume holds a copy of the float32 volume")
	}

	// Access log: each miss says whether it built or reused.
	notes := map[any]int{}
	for _, l := range sink.lines(t) {
		if l["msg"] == "request" && l["route"] == "render" {
			notes[l["prepared"]]++
		}
	}
	if notes["built"] != 2 || notes["reused"] != 7 {
		t.Errorf("access log prepared notes %v, want 2 built and 7 reused", notes)
	}

	putPlume(t, api, "pv")
	if got, want := st.ResidentBytes(), residentVolumeBytes(st); got != want {
		t.Errorf("after PUT resident bytes %d, want %d: the old generation's prepared volumes must go", got, want)
	}
	renders("uint8", 9, 10, 11)
	// The two direct prepare calls above were hits too.
	check("PUT + 3 uint8 misses", 3, 11, 2, 3)

	resp, err := http.DefaultClient.Do(mustRequest(t, http.MethodDelete, api+"/volumes/pv"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE pv: status %d", resp.StatusCode)
	}
	if got, want := st.ResidentBytes(), residentVolumeBytes(st); got != want {
		t.Errorf("after DELETE resident bytes %d, want %d: prepared volumes outlived their volume", got, want)
	}

	// Both expositions carry the counters.
	var snap map[string]json.RawMessage
	getJSON(t, "http://"+a.opsAddr()+"/metrics", &snap)
	for key, want := range map[string]uint64{"render.prepared.builds": 3, "render.prepared.hits": 11} {
		var c struct {
			Total uint64 `json:"total"`
		}
		if err := json.Unmarshal(snap[key], &c); err != nil || c.Total != want {
			t.Errorf("/metrics %s = %s (err %v), want total %d", key, snap[key], err, want)
		}
	}
	presp, err := http.Get("http://" + a.opsAddr() + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	for _, want := range []string{"sfcserved_render_prepared_builds_total 3", "sfcserved_render_prepared_hits_total 11"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// putPlume uploads a 32³ float32 combustion plume as name, in Z order.
func putPlume(t *testing.T, api, name string) {
	t.Helper()
	const n = 32
	var raw bytes.Buffer
	if err := sfcmem.SaveRawAny(&raw, sfcmem.CombustionPlumeAny(sfcmem.F32, sfcmem.NewLayout(sfcmem.Array, n, n, n), 1)); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, api+"/volumes/"+name+"?dtype=float32&layout=zorder&nx=32&ny=32&nz=32", &raw)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT %s: status %d", name, resp.StatusCode)
	}
}

// spanCount counts the spans named name in the recent traces of route.
func spanCount(a *app, route, name string) int {
	n := 0
	for _, tr := range a.srv.hub.Ring().Recent(0) {
		if tr.Route != route {
			continue
		}
		for _, s := range tr.Spans() {
			if s.Name == name {
				n++
			}
		}
	}
	return n
}

// residentVolumeBytes is what the store's resident volumes alone hold,
// without the values derived from them.
func residentVolumeBytes(st *store.Store) int64 {
	var b int64
	for _, in := range st.List() {
		if in.Resident {
			b += in.Bytes
		}
	}
	return b
}

// TestFilterConvertedViewReuse runs under -race by `make race`: filter
// misses at a dtype read the same per-generation converted view that
// renders do. Eight concurrent uint8 filter misses on a float32 volume
// convert it once, a uint8 render then reuses that view, and a PUT
// makes exactly one more conversion.
func TestFilterConvertedViewReuse(t *testing.T) {
	cfg := testConfig()
	cfg.queueDepth = 16 // room for every concurrent miss
	a, _, _ := startApp(t, cfg)
	api := "http://" + a.apiAddr()
	st := a.srv.store.(*store.Store)

	// filters runs one radius-1 uint8 filter per range sigma
	// concurrently, each into its own destination; each is a miss.
	filters := func(sigmas ...int) {
		t.Helper()
		var wg sync.WaitGroup
		for _, r := range sigmas {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp := postJSON(t, api+"/filter", filterRequest{Src: "pv", Dst: fmt.Sprintf("pv.s%d", r), Radius: 1, SigmaRange: float64(r), Workers: 1, Dtype: "uint8"})
				var out struct {
					Dtype string `json:"dtype"`
				}
				err := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" || err != nil || out.Dtype != "uint8" {
					t.Errorf("sigma %d: status %d, X-Cache %q, dtype %q (%v)", r, resp.StatusCode, resp.Header.Get("X-Cache"), out.Dtype, err)
				}
			}()
		}
		wg.Wait()
	}

	putPlume(t, api, "pv")
	filters(1, 2, 3, 4, 5, 6, 7, 8)
	if got := spanCount(a, "filter", "resolve"); got != 1 {
		t.Errorf("8 uint8 filter misses: %d conversions, want 1", got)
	}
	vol, err := st.Get("pv")
	if err != nil {
		t.Fatal(err)
	}
	u8, err := a.srv.converted(nil, vol, sfcmem.U8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.ResidentBytes(), residentVolumeBytes(st)+u8.Bytes(); got != want {
		t.Errorf("resident bytes %d, want %d: the converted view must count against the RAM tier once", got, want)
	}

	resp := postJSON(t, api+"/render", renderRequest{Volume: "pv", Width: 32, Height: 32, Workers: 1, Dtype: "uint8"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uint8 render: status %d", resp.StatusCode)
	}
	if got := spanCount(a, "render", "resolve"); got != 0 {
		t.Errorf("uint8 render after the filters: %d conversions, want the filters' view reused", got)
	}
	if p, err := a.srv.prepare(nil, vol, sfcmem.U8); err != nil || p.grid != u8 {
		t.Errorf("prepared uint8 grid is not the filters' converted view (err %v)", err)
	}

	putPlume(t, api, "pv")
	filters(1, 2, 3)
	if got := spanCount(a, "filter", "resolve"); got != 2 {
		t.Errorf("PUT + 3 uint8 filter misses: %d conversions in all, want 2", got)
	}
}

func mustRequest(t *testing.T, method, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestRenderJobUsesPreparedVolume: a render job's full-resolution pass
// runs over the same prepared volume a sync render built, and its frame
// is the one the sync path serves.
func TestRenderJobUsesPreparedVolume(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	api := "http://" + a.apiAddr()
	rr := renderRequest{Volume: "demo", View: 2, Views: 8, Width: 32, Height: 32, Workers: 1, Dtype: "uint8"}
	resp := postJSON(t, api+"/render", renderRequest{Volume: "demo", View: 1, Views: 8, Width: 32, Height: 32, Workers: 1, Dtype: "uint8"})
	resp.Body.Close()
	if a.srv.preparedBuilds.Total() != 1 {
		t.Fatalf("sync render: %d prepared builds, want 1", a.srv.preparedBuilds.Total())
	}
	id := submitJob(t, api, jobRequest{Op: "render", Render: &rr})
	waitFor(t, "job terminal", func() bool {
		st := jobState(t, api, id)
		return st == "done" || st == "failed" || st == "cancelled"
	})
	if st := jobState(t, api, id); st != "done" {
		t.Fatalf("job state %s", st)
	}
	if b, h := a.srv.preparedBuilds.Total(), a.srv.preparedHits.Total(); b != 1 || h != 1 {
		t.Errorf("job: %d builds, %d hits, want the sync render's prepared volume reused (1, 1)", b, h)
	}
	sync := postJSON(t, api+"/render", rr)
	defer sync.Body.Close()
	if sync.Header.Get("X-Cache") != "hit" {
		t.Errorf("sync render after the job: X-Cache %q, want hit", sync.Header.Get("X-Cache"))
	}
}
