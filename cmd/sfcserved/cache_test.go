package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"sfcmem"
	"sfcmem/internal/obs"
	"sfcmem/internal/store"
)

// identicalRender is the request every coalescing/caching test repeats.
var identicalRender = renderRequest{Volume: "demo", View: 3, Views: 8, Width: 32, Height: 32, Workers: 2}

func postWithHeader(t *testing.T, url string, body any, header, value string) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set(header, value)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// reuploadDemo PUTs the demo volume's own bytes back over itself: the
// contents are unchanged but the store generation must bump, stranding
// every cached digest for the old generation.
func reuploadDemo(t *testing.T, a *app) store.Info {
	t.Helper()
	v, err := a.srv.store.Get("demo")
	if err != nil {
		t.Fatal("demo volume missing")
	}
	var raw bytes.Buffer
	if err := sfcmem.SaveRawAny(&raw, v.Grid); err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := v.Grid.Dims()
	url := "http://" + a.apiAddr() + "/volumes/demo?dtype=" + v.Grid.Dtype().String() +
		"&layout=" + v.Layout
	url += "&nx=" + itoa(nx) + "&ny=" + itoa(ny) + "&nz=" + itoa(nz)
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-upload: status %d body %s", resp.StatusCode, body)
	}
	var info store.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func itoa(n int) string { return strconv.Itoa(n) }

// serveBuiltApp runs an already-built app (so tests can install hooks
// first) with the same lifecycle management as startApp.
func serveBuiltApp(t *testing.T, a *app) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.run(ctx) }()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections() // as in startApp
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("app.run: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("app.run did not return after cancel")
		}
	})
}

// TestRenderCacheCoalescing is the PR's acceptance scenario, run under
// -race by `make race`: with an empty cache, 32 concurrent identical
// /render requests execute the kernel exactly once (31 coalesced
// waiters, one miss) and all receive byte-identical PNGs; a repeat
// request is a cache hit with the same bytes; a PUT over the volume
// forces the next request back to a miss that re-runs the kernel.
func TestRenderCacheCoalescing(t *testing.T) {
	a, err := newApp(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	hook := newBlockingHook()
	a.srv.renderImage = hook.render
	serveBuiltApp(t, a)
	url := "http://" + a.apiAddr() + "/render"

	const n = 32
	type result struct {
		status int
		xcache string
		sum    [32]byte
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			resp := postJSON(t, url, identicalRender)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header.Get("X-Cache"), sha256.Sum256(body)}
		}()
	}

	// The leader parks inside the kernel; every other request must end
	// up waiting on its flight, not in the admission queue.
	<-hook.entered
	waitFor(t, "31 coalesced waiters", func() bool { return a.srv.cache.Stats().Coalesced == n-1 })
	if extra := len(hook.entered); extra != 0 {
		t.Fatalf("%d extra kernel entries while coalescing", extra)
	}
	close(hook.release)

	var first result
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		res := <-results
		if res.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, res.status)
		}
		counts[res.xcache]++
		if i == 0 {
			first = res
		} else if res.sum != first.sum {
			t.Fatal("coalesced responses are not byte-identical")
		}
	}
	if counts["miss"] != 1 || counts["coalesced"] != n-1 {
		t.Errorf("X-Cache counts %v, want 1 miss / %d coalesced", counts, n-1)
	}
	st := a.srv.cache.Stats()
	if st.Misses != 1 || st.Coalesced != n-1 {
		t.Errorf("stats misses/coalesced = %d/%d, want 1/%d", st.Misses, st.Coalesced, n-1)
	}

	// A repeat request is a pure cache hit: same bytes, no kernel run.
	resp := postJSON(t, url, identicalRender)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("repeat X-Cache %q, want hit", xc)
	}
	if sha256.Sum256(body) != first.sum {
		t.Error("cache hit is not byte-identical to the original render")
	}
	if len(hook.entered) != 0 {
		t.Error("cache hit ran the kernel")
	}
	if st := a.srv.cache.Stats(); st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}

	// Replacing the volume bumps the generation: the next identical
	// request misses and the kernel runs again.
	info := reuploadDemo(t, a)
	if info.Gen != 2 {
		t.Fatalf("re-uploaded demo gen = %d, want 2", info.Gen)
	}
	resp = postJSON(t, url, identicalRender)
	resp.Body.Close()
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("post-PUT X-Cache %q, want miss", xc)
	}
	select {
	case <-hook.entered:
	default:
		t.Error("post-PUT request did not re-run the kernel")
	}
	if st := a.srv.cache.Stats(); st.Misses != 2 {
		t.Errorf("misses after PUT = %d, want 2", st.Misses)
	}
}

// TestRenderETagNotModified: responses carry a strong ETag; replaying it via If-None-Match answers 304 with an
// empty body, and a PUT over the volume (new generation, new tag)
// turns the same conditional request back into a full 200.
func TestRenderETagNotModified(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	url := "http://" + a.apiAddr() + "/render"

	resp := postJSON(t, url, identicalRender)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" || etag[0] != '"' {
		t.Fatalf("ETag %q, want a quoted strong tag", etag)
	}

	resp = postWithHeader(t, url, identicalRender, "If-None-Match", etag)
	nm, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match replay: status %d, want 304", resp.StatusCode)
	}
	if len(nm) != 0 {
		t.Errorf("304 carried %d body bytes", len(nm))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag %q, want %q", got, etag)
	}

	// A different view is different content: same conditional tag, 200.
	other := identicalRender
	other.View = 5
	resp = postWithHeader(t, url, other, "If-None-Match", etag)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("different view with stale tag: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got == etag || got == "" {
		t.Errorf("different view ETag %q, want a fresh tag", got)
	}

	// After a PUT the old tag no longer validates.
	reuploadDemo(t, a)
	resp = postWithHeader(t, url, identicalRender, "If-None-Match", etag)
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-PUT conditional: status %d, want 200", resp.StatusCode)
	}
	if len(rb) != len(body) {
		// Same volume contents re-uploaded: the frame is identical even
		// though the tag is new.
		t.Errorf("post-PUT render %d bytes, want %d", len(rb), len(body))
	}
	if got := resp.Header.Get("ETag"); got == etag {
		t.Error("ETag unchanged across a volume PUT; generation not in the digest")
	}
}

// TestRenderCacheRawFormat: raw frames cache with their dimension
// headers intact, and png/raw digests do not collide.
func TestRenderCacheRawFormat(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	url := "http://" + a.apiAddr() + "/render"
	req := identicalRender
	req.Format = "raw"

	for i, want := range []string{"miss", "hit"} {
		resp := postJSON(t, url, req)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("raw render %d: status %d", i, resp.StatusCode)
		}
		if xc := resp.Header.Get("X-Cache"); xc != want {
			t.Errorf("raw render %d: X-Cache %q, want %q", i, xc, want)
		}
		if got := resp.Header.Get("X-Image-Width"); got != "32" {
			t.Errorf("raw render %d: X-Image-Width %q, want 32 (meta header lost in cache?)", i, got)
		}
		if wantLen := 32 * 32 * 4 * 4; len(body) != wantLen {
			t.Errorf("raw render %d: %d bytes, want %d", i, len(body), wantLen)
		}
	}

	// The png variant of the same view must not be served the raw bytes.
	resp := postJSON(t, url, identicalRender)
	resp.Body.Close()
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("png after raw: X-Cache %q, want miss (format missing from digest?)", xc)
	}
}

// TestFilterCacheAndETag: identical filter requests coalesce onto one
// kernel run, the cached JSON replays byte-identically, and the
// conditional request answers 304.
func TestFilterCacheAndETag(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	url := "http://" + a.apiAddr() + "/filter"
	req := filterRequest{Src: "demo", Kernel: "gaussian", Radius: 1, Workers: 2}

	resp := postJSON(t, url, req)
	first, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filter: status %d body %s", resp.StatusCode, first)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("filter response has no ETag")
	}
	if _, err := a.srv.store.Get("demo.filtered"); err != nil {
		t.Fatal("filtered volume not stored")
	}

	resp = postJSON(t, url, req)
	second, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("repeat filter X-Cache %q, want hit", xc)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached filter response differs: %s vs %s", first, second)
	}
	// The destination volume's generation did not advance on the hit:
	// the kernel (and its store.Put) ran once.
	if v, _ := a.srv.store.Get("demo.filtered"); v.Gen != 1 {
		t.Errorf("demo.filtered gen = %d after a cache hit, want 1", v.Gen)
	}

	resp = postWithHeader(t, url, req, "If-None-Match", etag)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("filter If-None-Match: status %d, want 304", resp.StatusCode)
	}

	// Workers are an execution knob, not content: same digest, still a
	// hit.
	req.Workers = 1
	resp = postJSON(t, url, req)
	resp.Body.Close()
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("filter with different workers X-Cache %q, want hit", xc)
	}

	// A parameter that changes the result is a different digest.
	req.Radius = 2
	resp = postJSON(t, url, req)
	resp.Body.Close()
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("filter with different radius X-Cache %q, want miss", xc)
	}
}

// uploadZeros PUTs an n³ float32 volume of zero bytes over name,
// clobbering whatever was stored there (and clearing any filterKey).
func uploadZeros(t *testing.T, a *app, name string, n int) {
	t.Helper()
	body := make([]byte, n*n*n*4)
	url := fmt.Sprintf("http://%s/volumes/%s?dtype=float32&layout=zorder&nx=%d&ny=%d&nz=%d",
		a.apiAddr(), name, n, n, n)
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload over %s: status %d", name, resp.StatusCode)
	}
}

// TestFilterDstClobberedByUpload pins the destination-state rule: a
// /filter response (cached body or 304) claims dst holds the filter
// output, so once an upload replaces dst, the identical request must
// go back through the kernel and re-store dst — a replayed hit or a
// 304 here would leave clients reading the uploaded bytes while being
// told they are the filter result.
func TestFilterDstClobberedByUpload(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	url := "http://" + a.apiAddr() + "/filter"
	req := filterRequest{Src: "demo", Kernel: "gaussian", Radius: 1, Workers: 2}

	resp := postJSON(t, url, req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filter: status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("filter response has no ETag")
	}

	uploadZeros(t, a, "demo.filtered", 8)
	if v, err := a.srv.store.Get("demo.filtered"); err != nil || v.FilterKey != "" || v.Gen != 2 {
		t.Fatalf("upload over dst: filterKey %q gen %d, want empty and 2", v.FilterKey, v.Gen)
	}

	// The conditional replay must be a full 200 — dst no longer holds
	// the output the 304 would vouch for — and must re-run the kernel.
	resp = postWithHeader(t, url, req, "If-None-Match", etag)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-clobber conditional: status %d, want 200", resp.StatusCode)
	}
	if xc := resp.Header.Get("X-Cache"); xc == "hit" {
		t.Errorf("post-clobber filter X-Cache %q; replayed a stale claim", xc)
	}
	v, err := a.srv.store.Get("demo.filtered")
	if err != nil || v.Dataset != "plume+gaussian" || v.Gen != 3 {
		t.Fatalf("post-clobber dst: dataset %q gen %d, want plume+gaussian gen 3 (kernel re-ran and re-stored)", v.Dataset, v.Gen)
	}

	// With dst restored, the cache is trustworthy again: repeat is a
	// hit and the conditional request validates.
	resp = postJSON(t, url, req)
	resp.Body.Close()
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("post-restore filter X-Cache %q, want hit", xc)
	}
	resp = postWithHeader(t, url, req, "If-None-Match", etag)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("post-restore conditional: status %d, want 304", resp.StatusCode)
	}
}

// TestETagProcessScoped: two processes serving the identical volume
// mint different ETags (a boot nonce is mixed into every digest), so
// a tag from a previous run can never validate a 304 against contents
// this process has not computed — store generations restart at 1 per
// process and prove nothing across runs.
func TestETagProcessScoped(t *testing.T) {
	a1, _, _ := startApp(t, testConfig())
	a2, _, _ := startApp(t, testConfig())

	r1 := postJSON(t, "http://"+a1.apiAddr()+"/render", identicalRender)
	r1.Body.Close()
	etag := r1.Header.Get("ETag")
	r2 := postJSON(t, "http://"+a2.apiAddr()+"/render", identicalRender)
	r2.Body.Close()
	if etag == "" || etag == r2.Header.Get("ETag") {
		t.Fatalf("identical requests in two processes share ETag %q", etag)
	}

	resp := postWithHeader(t, "http://"+a2.apiAddr()+"/render", identicalRender, "If-None-Match", etag)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cross-process conditional: status %d, want 200", resp.StatusCode)
	}
}

// TestPutVolumeBumpsGeneration covers the store-generation satellite:
// every PUT over an existing name advances the generation reported by
// /volumes, and a fresh name starts at 1.
func TestPutVolumeBumpsGeneration(t *testing.T) {
	a, _, _ := startApp(t, testConfig())

	if v, _ := a.srv.store.Get("demo"); v.Gen != 1 {
		t.Fatalf("initial demo gen = %d, want 1", v.Gen)
	}
	if info := reuploadDemo(t, a); info.Gen != 2 {
		t.Fatalf("first re-upload gen = %d, want 2", info.Gen)
	}
	if info := reuploadDemo(t, a); info.Gen != 3 {
		t.Fatalf("second re-upload gen = %d, want 3", info.Gen)
	}

	resp, err := http.Get("http://" + a.apiAddr() + "/volumes")
	if err != nil {
		t.Fatal(err)
	}
	var vols []store.Info
	if err := json.NewDecoder(resp.Body).Decode(&vols); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, v := range vols {
		if v.Name == "demo" && v.Gen != 3 {
			t.Errorf("/volumes lists demo gen %d, want 3", v.Gen)
		}
	}
}

// TestCacheMetricsRegistered: the ops registry carries the cache
// counters and gauges.
func TestCacheMetricsRegistered(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	url := "http://" + a.apiAddr() + "/render"
	resp := postJSON(t, url, identicalRender)
	resp.Body.Close()
	resp = postJSON(t, url, identicalRender)
	resp.Body.Close()

	mresp, err := http.Get("http://" + a.opsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"cache.hits", "cache.misses", "cache.evictions", "cache.coalesced",
		"cache.resident_bytes", "cache.entries", "cache.budget_bytes",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
	var hits uint64
	if err := json.Unmarshal(snap["cache.hits"], &hits); err != nil || hits != 1 {
		t.Errorf("cache.hits = %s (err %v), want 1", snap["cache.hits"], err)
	}
	var resident int64
	if err := json.Unmarshal(snap["cache.resident_bytes"], &resident); err != nil || resident <= 0 {
		t.Errorf("cache.resident_bytes = %s (err %v), want > 0", snap["cache.resident_bytes"], err)
	}
}

// TestDigestCanonicalization: the digest must separate fields (no
// ambiguity between ("ab","c") and ("a","bc")) and must change with
// any content-affecting parameter.
func TestDigestCanonicalization(t *testing.T) {
	if digest("ab", "c") == digest("a", "bc") {
		t.Error("digest concatenates fields without separation")
	}
	// Client-chosen names may contain any byte; a separator inside a
	// value must not be able to forge a field boundary.
	if digest("a|b", "c") == digest("a", "b|c") {
		t.Error("a '|' inside a field forges the field boundary")
	}
	if digest("2:a", "b") == digest("2", "a,b") {
		t.Error("length-prefix characters inside a field forge the encoding")
	}
	if digest("render", "v1", "demo", 1, "float32", 0, 24, 256, 256, false, "png") ==
		digest("render", "v1", "demo", 2, "float32", 0, 24, 256, 256, false, "png") {
		t.Error("generation does not change the digest")
	}
	if digest("x") == digest("y") {
		t.Error("distinct digests collide")
	}
}

func TestEtagMatches(t *testing.T) {
	tag := `"abc"`
	for _, h := range []string{`"abc"`, `*`, `"zzz", "abc"`, `W/"abc"`} {
		if !etagMatches(h, tag) {
			t.Errorf("etagMatches(%q, %q) = false, want true", h, tag)
		}
	}
	for _, h := range []string{`"abd"`, `abc`, ``} {
		if etagMatches(h, tag) {
			t.Errorf("etagMatches(%q, %q) = true, want false", h, tag)
		}
	}
}

// BenchmarkRenderCacheHit serves one resident /render response through
// the traced handler without a network: decode, digest, cache hit and
// respond. Its allocs/op is the hit path's allocation count.
func BenchmarkRenderCacheHit(b *testing.B) {
	vols := store.NewMemory(nil)
	v, err := parseVolumeSpec("demo=plume:16:zorder")
	if err != nil {
		b.Fatal(err)
	}
	if err := vols.Put(v); err != nil {
		b.Fatal(err)
	}
	s := newBareServer(b, vols, testConfig())
	s.hub = obs.NewHub(io.Discard, 0)
	mux := s.mux()
	body := []byte(`{"volume":"demo","view":3,"views":8,"width":64,"height":64,"workers":1}`)
	serve := func() string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/render", bytes.NewReader(body)))
		return rec.Header().Get("X-Cache")
	}
	if xc := serve(); xc != "miss" {
		b.Fatalf("priming request: X-Cache %q, want miss", xc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if xc := serve(); xc != "hit" {
			b.Fatalf("X-Cache %q, want hit", xc)
		}
	}
}
