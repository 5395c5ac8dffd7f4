package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sfcmem"
	"sfcmem/internal/metrics"
	"sfcmem/internal/render"
	"sfcmem/internal/store"
)

// testConfig binds both listeners to ephemeral ports with a small demo
// volume and a 32 MiB response cache, so every test runs an isolated
// full service instance.
func testConfig() config {
	return config{
		addr:            "127.0.0.1:0",
		ops:             "127.0.0.1:0",
		volumes:         []string{"demo=plume:16:zorder"},
		slots:           2,
		queueDepth:      4,
		cacheBytes:      32 << 20,
		defaultDeadline: 30 * time.Second,
		maxDeadline:     2 * time.Minute,
		drainTimeout:    10 * time.Second,
		accessLog:       io.Discard, // obs tests substitute a buffer
	}
}

// newBareServer builds a server over vols with cfg's admission gate,
// deadlines and cache budget but no listeners, and drains its job
// manager at cleanup.
func newBareServer(tb testing.TB, vols store.VolumeStore, cfg config) *server {
	tb.Helper()
	s := newServer(vols, metrics.NewRegistry(), cfg)
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.jobs.Drain(ctx); err != nil {
			tb.Errorf("jobs drain: %v", err)
		}
	})
	return s
}

// startApp builds and serves an app, returning it with its cancel
// function and a channel carrying run's result. Cleanup tears the
// service down and fails the test if the drain errored or if any
// goroutine started since startApp outlives it.
func startApp(t *testing.T, cfg config) (*app, context.CancelFunc, chan error) {
	t.Helper()
	before := runtime.NumGoroutine()
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()
	t.Cleanup(func() {
		// Close the client's idle connections first: Shutdown waits
		// about 5 s for a connection that was dialed but never sent a
		// request before it counts it as idle.
		http.DefaultClient.CloseIdleConnections()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("app.run: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("app.run did not return after cancel")
			return
		}
		checkNoLeak(t, before)
	})
	waitServing(t, "http://"+a.apiAddr()+"/healthz", "http://"+a.opsAddr()+"/version")
	return a, cancel, done
}

// waitServing returns once every url has answered, so both of the
// app's Serve goroutines are running before the test (or a second
// app's goroutine baseline) proceeds. The probes use their own
// connections, closed after each answer.
func waitServing(t *testing.T, urls ...string) {
	t.Helper()
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	for _, u := range urls {
		resp, err := c.Get(u)
		if err != nil {
			t.Fatalf("probe %s: %v", u, err)
		}
		resp.Body.Close()
	}
}

// checkNoLeak waits up to five seconds for the goroutine count to fall
// back to before, and fails the test with every goroutine's stack if
// it does not.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("%d goroutines outlive the service (%d before it started):\n%s",
				runtime.NumGoroutine(), before, buf)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func TestConcurrentRendersServePNG(t *testing.T) {
	cfg := testConfig()
	const n = 8
	cfg.queueDepth = n // admit every concurrent request in this test
	a, _, _ := startApp(t, cfg)
	url := "http://" + a.apiAddr() + "/render"
	type result struct {
		status int
		body   []byte
		err    error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(view int) {
			resp := postJSON(t, url, renderRequest{Volume: "demo", View: view, Views: 8, Width: 48, Height: 48, Workers: 2})
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			results <- result{resp.StatusCode, body, err}
		}(i)
	}
	for i := 0; i < n; i++ {
		res := <-results
		if res.err != nil || res.status != http.StatusOK {
			t.Fatalf("render %d: status %d err %v body %s", i, res.status, res.err, res.body)
		}
		img, err := png.Decode(bytes.NewReader(res.body))
		if err != nil {
			t.Fatalf("render %d: not a PNG: %v", i, err)
		}
		if b := img.Bounds(); b.Dx() != 48 || b.Dy() != 48 {
			t.Errorf("render %d: %dx%d frame, want 48x48", i, b.Dx(), b.Dy())
		}
	}
}

func TestRenderRawFormat(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	resp := postJSON(t, "http://"+a.apiAddr()+"/render",
		renderRequest{Volume: "demo", Views: 8, Width: 16, Height: 16, Workers: 1, Format: "raw"})
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if want := 16 * 16 * 4 * 4; len(body) != want {
		t.Errorf("raw frame is %d bytes, want %d", len(body), want)
	}
	if got := resp.Header.Get("X-Image-Width"); got != "16" {
		t.Errorf("X-Image-Width = %q", got)
	}
}

// TestRawFrameBytes pins the "raw" body of a fixed frame byte for byte:
// each pixel's R, G, B, A as little-endian float32 bits, row-major, with
// NaN, -0, a subnormal and ±Inf carried through unchanged. The hash was
// taken from the binary.Write encoder this one replaced.
func TestRawFrameBytes(t *testing.T) {
	img := render.NewImage(5, 3)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			i := float32(y*img.W + x)
			img.Set(x, y, sfcmem.RGBA{R: i / 7, G: -i, B: float32(math.Inf(1)), A: 1 - i/15})
		}
	}
	img.Set(0, 0, sfcmem.RGBA{R: float32(math.NaN()), G: float32(math.Copysign(0, -1)), B: 1e-40, A: float32(math.Inf(-1))})
	v, err := encodeFrame(img, "raw")
	if err != nil {
		t.Fatal(err)
	}
	const want = "784b689b6f37c553142e730a9c6186e1ce5ff08be17cbb21b56f45e68152b6a1"
	if got := fmt.Sprintf("%x", sha256.Sum256(v.Body)); len(v.Body) != 5*3*16 || got != want {
		t.Errorf("raw body: %d bytes, sha256 %s; want 240 bytes, %s", len(v.Body), got, want)
	}
	if got := binary.LittleEndian.Uint32(v.Body[16*7+4:]); got != math.Float32bits(-7) {
		t.Errorf("pixel 7 G bits %#x, want %#x", got, math.Float32bits(-7))
	}
	if v.Meta["X-Image-Width"] != "5" || v.Meta["X-Image-Height"] != "3" {
		t.Errorf("raw metadata %v", v.Meta)
	}
}

func TestRenderErrors(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	base := "http://" + a.apiAddr()
	cases := []struct {
		req  renderRequest
		want int
	}{
		{renderRequest{Volume: "nope", Views: 8, Width: 16, Height: 16}, http.StatusNotFound},
		{renderRequest{Volume: "demo", Views: 8, Width: 16, Height: 16, Format: "bmp"}, http.StatusBadRequest},
		{renderRequest{Volume: "demo", Width: 1 << 20}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, base+"/render", c.req)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%+v: status %d, want %d", c.req, resp.StatusCode, c.want)
		}
	}
	// Method mismatch on a registered pattern.
	resp, err := http.Get(base + "/render")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /render: status %d, want 405", resp.StatusCode)
	}
}

// blockingHook replaces renderImage so a request parks inside the run
// slot until released, making admission behaviour deterministic.
type blockingHook struct {
	entered chan struct{}
	release chan struct{}
}

func newBlockingHook() *blockingHook {
	return &blockingHook{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (h *blockingHook) render(ctx context.Context, vol *sfcmem.AnyGrid, cam sfcmem.Camera, tf *sfcmem.TransferFunc, o sfcmem.RenderOptions) (*sfcmem.Image, error) {
	h.entered <- struct{}{}
	select {
	case <-h.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return sfcmem.RenderAnyCtx(ctx, vol, cam, tf, o)
}

// TestAdmissionOverflow429 fills one run slot and one queue slot, then
// checks the next request is shed with 429 + Retry-After — and that the
// two admitted requests still complete once unblocked. Each request
// asks for its own view: identical ones would coalesce onto the first
// request's run instead of queueing.
func TestAdmissionOverflow429(t *testing.T) {
	cfg := testConfig()
	cfg.slots, cfg.queueDepth = 1, 1
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hook := newBlockingHook()
	a.srv.renderImage = hook.render // before run: no concurrent access yet
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()

	url := "http://" + a.apiAddr() + "/render"
	req := func(view int) renderRequest {
		return renderRequest{Volume: "demo", View: view, Views: 8, Width: 16, Height: 16, Workers: 1}
	}
	statuses := make(chan int, 2)
	do := func(view int) {
		resp := postJSON(t, url, req(view))
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go do(0) // A: takes the run slot, parks in the hook
	<-hook.entered
	go do(1) // B: takes the queue slot, waits for the run slot
	waitFor(t, "request queued", func() bool { return len(a.srv.queue) == 2 })

	resp := postJSON(t, url, req(2)) // C: queue full
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(hook.release)
	for i := 0; i < 2; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("admitted request finished with %d, want 200", st)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("app.run: %v", err)
	}
}

// TestDeadlineFailsFast sends a 1ms deadline on a render far too large
// to finish in that time: the service must answer 504 promptly and reap
// the request's goroutines.
func TestDeadlineFailsFast(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	url := "http://" + a.apiAddr() + "/render"
	// Warm up once so HTTP transport goroutines exist before the count.
	resp := postJSON(t, url, renderRequest{Volume: "demo", Views: 8, Width: 16, Height: 16, Workers: 1})
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	before := runtime.NumGoroutine()

	start := time.Now()
	resp = postJSON(t, url, renderRequest{Volume: "demo", Views: 8, Width: 2048, Height: 2048, Workers: 2, DeadlineMS: 1})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if elapsed > 2*time.Second {
		t.Errorf("1ms deadline answered in %v, want prompt failure", elapsed)
	}
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines reaped", func() bool { return runtime.NumGoroutine() <= before })
}

// TestGracefulDrain cancels the app while a request is in flight: the
// request must still complete successfully and run must return nil.
func TestGracefulDrain(t *testing.T) {
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

	addr := a.apiAddr()
	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp := postJSON(t, "http://"+addr+"/render",
			renderRequest{Volume: "demo", Views: 8, Width: 16, Height: 16, Workers: 1})
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		inflight <- result{resp.StatusCode, body}
	}()
	<-hook.entered

	cancel() // SIGTERM equivalent: begin the drain
	// The listener closes before in-flight work finishes: new
	// connections must start failing while our request is still parked.
	waitFor(t, "listener closed", func() bool {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			return true
		}
		c.Close()
		return false
	})
	select {
	case res := <-inflight:
		t.Fatalf("in-flight request returned during drain: %d %s", res.status, res.body)
	default:
	}

	close(hook.release)
	res := <-inflight
	if res.status != http.StatusOK {
		t.Fatalf("drained request: status %d body %s", res.status, res.body)
	}
	if _, err := png.Decode(bytes.NewReader(res.body)); err != nil {
		t.Errorf("drained request did not deliver a PNG: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("app.run after drain: %v", err)
	}
}

func TestOpsEndpoints(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	api, ops := "http://"+a.apiAddr(), "http://"+a.opsAddr()

	resp := postJSON(t, api+"/render", renderRequest{Volume: "demo", Views: 8, Width: 16, Height: 16, Workers: 1})
	resp.Body.Close()

	resp, err := http.Get(ops + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics Content-Type %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/metrics Cache-Control %q, want no-store", cc)
	}
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	for _, key := range []string{"render.requests", "render.latency", "admission.rejected", "admission.queued"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}

	hresp, err := http.Get(api + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", hresp.StatusCode)
	}
}

func TestFilterAndVolumeLifecycle(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	base := "http://" + a.apiAddr()

	resp := postJSON(t, base+"/volumes", createVolumeRequest{Name: "ph", Dataset: "phantom", Size: 16, Layout: "array"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create volume: status %d", resp.StatusCode)
	}

	resp = postJSON(t, base+"/filter", filterRequest{Src: "ph", Kernel: "gaussian", Radius: 1, Workers: 2})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filter: status %d body %s", resp.StatusCode, body)
	}
	var fr struct {
		Volume string `json:"volume"`
	}
	if err := json.Unmarshal(body, &fr); err != nil || fr.Volume != "ph.filtered" {
		t.Fatalf("filter response %s (err %v)", body, err)
	}

	resp, err := http.Get(base + "/volumes")
	if err != nil {
		t.Fatal(err)
	}
	var vols []store.Info
	if err := json.NewDecoder(resp.Body).Decode(&vols); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	names := make([]string, len(vols))
	for i, v := range vols {
		names[i] = v.Name
	}
	for _, want := range []string{"demo", "ph", "ph.filtered"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("volume %q missing from listing %v", want, names)
		}
	}

	// The filtered volume renders like any other.
	resp = postJSON(t, base+"/render", renderRequest{Volume: "ph.filtered", Views: 8, Width: 16, Height: 16, Workers: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("render of filtered volume: status %d", resp.StatusCode)
	}

	// Filter error paths.
	for _, c := range []struct {
		req  filterRequest
		want int
	}{
		{filterRequest{Src: "nope"}, http.StatusNotFound},
		{filterRequest{Src: "ph", Kernel: "median"}, http.StatusBadRequest},
		{filterRequest{Src: "ph", Axis: "w"}, http.StatusBadRequest},
		{filterRequest{Src: "ph", SigmaRange: -0.5}, http.StatusBadRequest},
	} {
		resp := postJSON(t, base+"/filter", c.req)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%+v: status %d, want %d", c.req, resp.StatusCode, c.want)
		}
	}
}

// TestRunExitCodes drives the CLI entry point itself.
func TestRunExitCodes(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-volume", "broken"}, &stderr); code != 1 {
		t.Errorf("bad volume spec: exit %d, want 1", code)
	}
	if code := run(context.Background(), []string{"-slots", "0"}, &stderr); code != 2 {
		t.Errorf("zero slots: exit %d, want 2", code)
	}
	// A cancelled context drains immediately: clean exit 0.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stderr.Reset()
	code := run(ctx, []string{"-addr", "127.0.0.1:0", "-ops", "127.0.0.1:0", "-volume", "tiny=plume:8:array"}, &stderr)
	if code != 0 {
		t.Errorf("cancelled run: exit %d, want 0 (stderr %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained, bye") {
		t.Errorf("stderr lacks drain notice: %q", stderr.String())
	}
}

// TestCacheBytesMustBePositive: the response cache is always on, so a
// budget of zero or below is a usage error, not a way to switch it off.
func TestCacheBytesMustBePositive(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		var stderr bytes.Buffer
		if code := run(context.Background(), []string{"-cache-bytes", v}, &stderr); code != 2 {
			t.Errorf("-cache-bytes %s: exit %d, want 2 (stderr %q)", v, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-cache-bytes must be > 0") {
			t.Errorf("-cache-bytes %s: stderr %q does not name the flag", v, stderr.String())
		}
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPaddedBufferBounded checks that both volume-creating endpoints
// bound the buffer a layout pads to, not just the logical voxel count:
// a 2³ volume whose x bit sits at index bit 27 asks for a 2²⁷-element
// buffer (512 MiB of float32, 128 MiB of uint8), and must be refused
// before anything is allocated — by the upload cap (256 MiB) and by the
// create cap (512³ elements).
func TestPaddedBufferBounded(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	base := "http://" + a.apiAddr()
	spec := "bit:yz" + strings.Repeat("y", 25) + "x"

	req, err := http.NewRequest(http.MethodPut,
		base+"/volumes/pad?dtype=float32&nx=2&ny=2&nz=2&layout="+spec, bytes.NewReader(make([]byte, 8*4)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "limit") {
		t.Errorf("padded upload: status %d body %s, want 413 naming the limit", resp.StatusCode, body)
	}

	resp = postJSON(t, base+"/volumes", createVolumeRequest{Name: "pad", Dataset: "plume", Size: 2, Layout: spec, Dtype: "uint8"})
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "limit") {
		t.Errorf("padded create: status %d body %s, want 400 naming the limit", resp.StatusCode, body)
	}
	if _, err := a.srv.store.Get("pad"); err == nil {
		t.Error("a refused volume reached the store")
	}

	// The same small volume under a compact layout is still welcome.
	resp = postJSON(t, base+"/volumes", createVolumeRequest{Name: "pad", Dataset: "plume", Size: 2, Layout: "bit:xyz", Dtype: "uint8"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("compact create: status %d, want 201", resp.StatusCode)
	}
}

// failingPutStore is a volume store whose disk tier cannot take writes
// for one name: Put of that name fails as ENOSPC would, every other
// call passes through.
type failingPutStore struct {
	store.VolumeStore
	name string
	puts atomic.Int32 // failed Put attempts for name
}

func (f *failingPutStore) Put(v *store.Volume) error {
	if v.Name != f.name {
		return f.VolumeStore.Put(v)
	}
	f.puts.Add(1)
	return errors.New("store: writing brick: no space left on device")
}

// TestFilterStoreFailureIs500 checks that a filter whose result cannot
// be stored is the service's fault (500), not the client's, and that
// the failure is not cached: an identical request runs the kernel and
// tries the store again.
func TestFilterStoreFailureIs500(t *testing.T) {
	vols := &failingPutStore{VolumeStore: store.NewMemory(nil), name: "demo.filtered"}
	v, err := parseVolumeSpec("demo=phantom:8:zorder")
	if err != nil {
		t.Fatal(err)
	}
	if err := vols.Put(v); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.slots, cfg.queueDepth = 1, 1
	cfg.cacheBytes = 1 << 20
	mux := newBareServer(t, vols, cfg).mux()
	for i := 1; i <= 2; i++ {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/filter",
			strings.NewReader(`{"src":"demo","radius":1,"workers":1}`)))
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "no space left") {
			t.Errorf("request %d: status %d body %q, want 500 naming the store error", i, rec.Code, rec.Body)
		}
		if got := vols.puts.Load(); got != int32(i) {
			t.Errorf("after request %d: %d store writes of the result, want %d", i, got, i)
		}
	}
}
