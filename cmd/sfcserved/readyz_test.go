package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sfcmem"
	"sfcmem/internal/store"
)

// TestReadyzLifecycle checks the liveness/readiness split end to end:
// a served app answers 200 on both, while a server that has not finished
// initialization is live but not ready.
func TestReadyzLifecycle(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	base := "http://" + a.apiAddr()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestReadyzBeforeInitAndDuringDrain drives the two not-ready states
// against the handler directly (the drain state cannot be probed over
// HTTP: shutdown closes the listener before in-flight work finishes).
func TestReadyzBeforeInitAndDuringDrain(t *testing.T) {
	s := newBareServer(t, store.NewMemory(nil), testConfig())
	mux := s.mux()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	// Before initialization: live, not ready.
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("uninitialized /healthz: %d, want 200", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rec.Body.String(), "not initialized") {
		t.Errorf("uninitialized /readyz: %d %q, want 503 not initialized", rec.Code, rec.Body.String())
	}

	// Ready once initialization completes.
	s.ready.Store(true)
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Errorf("ready /readyz: %d, want 200", rec.Code)
	}

	// Draining: still live, no longer ready.
	s.draining.Store(true)
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("draining /healthz: %d, want 200 (liveness must survive the drain)", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("draining /readyz: %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
}

// TestDrainFlipsReadyz starts a real app, parks a request in the render
// hook, begins the drain, and checks the server-side readiness state
// flipped while the in-flight request still completes.
func TestDrainFlipsReadyz(t *testing.T) {
	a, err := newApp(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	hook := newBlockingHook()
	a.srv.renderImage = hook.render
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()

	if !a.srv.ready.Load() {
		t.Fatal("served app is not ready")
	}
	inflight := make(chan int, 1)
	go func() {
		resp := postJSON(t, "http://"+a.apiAddr()+"/render",
			renderRequest{Volume: "demo", Views: 8, Width: 16, Height: 16, Workers: 1})
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-hook.entered

	cancel()
	waitFor(t, "draining flag", func() bool { return a.srv.draining.Load() })
	rec := httptest.NewRecorder()
	a.srv.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz: %d, want 503", rec.Code)
	}

	close(hook.release)
	if st := <-inflight; st != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", st)
	}
	if err := <-done; err != nil {
		t.Errorf("app.run: %v", err)
	}
}

func TestVolumeDtypeLifecycle(t *testing.T) {
	cfg := testConfig()
	cfg.volumes = []string{"demo=plume:16:zorder", "demo8=plume:16:zorder:uint8"}
	a, _, _ := startApp(t, cfg)
	base := "http://" + a.apiAddr()

	// The spec dtype shows up in the listing.
	resp, err := http.Get(base + "/volumes")
	if err != nil {
		t.Fatal(err)
	}
	var vols []store.Info
	if err := json.NewDecoder(resp.Body).Decode(&vols); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	dtypes := map[string]string{}
	for _, v := range vols {
		dtypes[v.Name] = v.Dtype
	}
	if dtypes["demo"] != "float32" || dtypes["demo8"] != "uint8" {
		t.Errorf("listed dtypes %v, want demo=float32 demo8=uint8", dtypes)
	}

	// A narrow volume renders, both natively and converted on the fly.
	for _, req := range []renderRequest{
		{Volume: "demo8", Views: 8, Width: 16, Height: 16, Workers: 1},
		{Volume: "demo", Views: 8, Width: 16, Height: 16, Workers: 1, Dtype: "uint16"},
	} {
		resp := postJSON(t, base+"/render", req)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("render %+v: status %d body %s", req, resp.StatusCode, body)
		}
	}
	resp = postJSON(t, base+"/render", renderRequest{Volume: "demo", Width: 16, Height: 16, Dtype: "int3"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("render with bogus dtype: status %d, want 400", resp.StatusCode)
	}

	// Filtering at a requested dtype stores the result at that dtype.
	resp = postJSON(t, base+"/filter", filterRequest{Src: "demo", Kernel: "gaussian", Radius: 1, Workers: 2, Dtype: "uint8"})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filter: status %d body %s", resp.StatusCode, body)
	}
	var fr struct {
		Volume string `json:"volume"`
		Dtype  string `json:"dtype"`
	}
	if err := json.Unmarshal(body, &fr); err != nil || fr.Dtype != "uint8" {
		t.Errorf("filter response %s (err %v), want dtype uint8", body, err)
	}
	v, err := a.srv.store.Get("demo.filtered")
	if err != nil || v.Grid.Dtype() != sfcmem.U8 {
		t.Errorf("filtered volume not stored at uint8 (err=%v)", err)
	}
}

func TestUploadVolume(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	base := "http://" + a.apiAddr()

	// Build a uint16 phantom locally and upload its raw bytes.
	l := sfcmem.NewLayout(sfcmem.Array, 8, 6, 5)
	src := sfcmem.MRIPhantomAny(sfcmem.U16, l, 13, 0.02)
	var raw bytes.Buffer
	if err := sfcmem.SaveRawAny(&raw, src); err != nil {
		t.Fatal(err)
	}
	put := func(url string, body []byte) *http.Response {
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	url := base + "/volumes/up?dtype=uint16&layout=hilbert&nx=8&ny=6&nz=5"
	resp := put(url, raw.Bytes())
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d body %s", resp.StatusCode, body)
	}
	var info store.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Dtype != "uint16" || info.Layout != "hilbert" || info.Nx != 8 || info.Ny != 6 || info.Nz != 5 {
		t.Errorf("upload info %+v", info)
	}

	// The samples survived the trip: compare against the local grid.
	v, err := a.srv.store.Get("up")
	if err != nil {
		t.Fatal("uploaded volume not in store")
	}
	want, got := sfcmem.Grids[uint16](src), sfcmem.Grids[uint16](v.Grid)
	want.ForEachIndex(func(i, j, k int, s uint16) {
		if got.At(i, j, k) != s {
			t.Fatalf("uploaded sample (%d,%d,%d) = %d, want %d", i, j, k, got.At(i, j, k), s)
		}
	})

	// And it renders like any synthesized volume.
	rresp := postJSON(t, base+"/render", renderRequest{Volume: "up", Views: 8, Width: 16, Height: 16, Workers: 1})
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Errorf("render of upload: status %d", rresp.StatusCode)
	}

	// Error paths: truncated body names byte counts; bad params 400;
	// an impossible volume size is refused before reading the body.
	resp = put(url, raw.Bytes()[:raw.Len()-7])
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "truncated") ||
		!strings.Contains(string(body), "want 480") {
		t.Errorf("truncated upload: status %d body %s, want 400 naming byte counts", resp.StatusCode, body)
	}
	for _, bad := range []string{
		"/volumes/x?dtype=int3&layout=zorder&nx=4&ny=4&nz=4",
		"/volumes/x?dtype=uint8&layout=bogus&nx=4&ny=4&nz=4",
		"/volumes/x?dtype=uint8&layout=zorder&nx=0&ny=4&nz=4",
		"/volumes/x?dtype=uint8&layout=zorder&nx=four&ny=4&nz=4",
	} {
		resp := put(base+bad, []byte{1, 2, 3})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp = put(base+"/volumes/x?dtype=float64&layout=array&nx=512&ny=512&nz=512", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize dims: status %d, want 413", resp.StatusCode)
	}
}
