package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"sfcmem"
	"sfcmem/internal/render"
	"sfcmem/internal/store"
)

// FuzzKernelRequest drives POST /render and POST /filter bodies through
// the service's mux against a fresh in-memory store holding one 8³
// volume "v" per execution. renderImage is a counting stub that returns
// a blank frame of the camera's size; filters run the real kernel. The
// body is a render or filter request built from the fuzzed fields, or
// raw when it is non-empty. Every input must answer 200, 400 or 404 —
// or 504 when it sets a deadline — without panicking. A 4xx must leave
// the stub uncalled and the store's volume list unchanged. A 200 must
// be a miss, and the same body sent again must be an X-Cache hit with
// identical bytes and no further render; a filter written over its own
// source is the exception, since its second run reads a new source
// generation and so is a new request.
func FuzzKernelRequest(f *testing.F) {
	f.Add(false, "v", 0, 8, 32, 32, 1, "", "", false, "", "", 0, "", 0.0, 0, []byte(nil))
	f.Add(false, "v", 3, 5, 16, 24, 2, "raw", "uint8", true, "", "", 0, "", 0.0, 100, []byte(nil))
	f.Add(false, "v", -3, 0, 0, 0, 0, "png", "float64", false, "", "", 0, "", 0.0, 1, []byte(nil))
	f.Add(false, "nope", 0, 8, 16, 16, 1, "bmp", "int3", false, "", "", 0, "", 0.0, 0, []byte(nil))
	f.Add(false, "v", 0, 8, 5000, 16, 300, "", "", false, "", "", 0, "", 0.0, 0, []byte(nil))
	f.Add(true, "v", 0, 0, 0, 0, 1, "", "", false, "", "", 0, "", 0.0, 0, []byte(nil))
	f.Add(true, "v", 0, 0, 0, 0, 2, "", "uint8", false, "v.out", "gaussian", 2, "y", 0.5, 0, []byte(nil))
	f.Add(true, "v", 0, 0, 0, 0, 1, "", "", false, "v", "bilateral", 8, "z", 0.0, 0, []byte(nil))
	f.Add(true, "v", 0, 0, 0, 0, 1, "", "", false, "", "median", 9, "w", -0.5, 0, []byte(nil))
	f.Add(true, "nope", 0, 0, 0, 0, 1, "", "", false, "", "", 0, "", 0.0, 1, []byte(nil))
	f.Add(false, "", 0, 0, 0, 0, 0, "", "", false, "", "", 0, "", 0.0, 0, []byte(`{"volume":"v","width":"wide"}`))
	f.Add(false, "", 0, 0, 0, 0, 0, "", "", false, "", "", 0, "", 0.0, 0, []byte(`{"volume":"v","width":16,"height":16} trailing`))
	f.Add(true, "", 0, 0, 0, 0, 0, "", "", false, "", "", 0, "", 0.0, 0, []byte(`{"src":"v","sigma_range":1e400}`))
	f.Add(true, "", 0, 0, 0, 0, 0, "", "", false, "", "", 0, "", 0.0, 0, []byte(`not json`))

	f.Fuzz(func(t *testing.T, filter bool, volume string, view, views, width, height, workers int, format, dtype string, shade bool,
		dst, kernel string, radius int, axis string, sigma float64, deadline int, raw []byte) {
		route := "/render"
		if filter {
			route = "/filter"
		}
		body := raw
		if len(body) == 0 {
			var req any = renderRequest{Volume: volume, View: view, Views: views, Width: width, Height: height,
				Workers: workers, Shade: shade, Format: format, Dtype: dtype, DeadlineMS: deadline}
			if filter {
				req = filterRequest{Src: volume, Dst: dst, Kernel: kernel, Radius: radius, Axis: axis,
					SigmaRange: sigma, Workers: workers, Dtype: dtype, DeadlineMS: deadline}
			}
			var err error
			if body, err = json.Marshal(req); err != nil {
				t.Skip("not representable as JSON:", err) // NaN or ±Inf sigma
			}
		}
		// The request as the handler decodes it, for the contract below.
		var rr renderRequest
		var fr filterRequest
		json.NewDecoder(bytes.NewReader(body)).Decode(&rr) //nolint:errcheck // a bad body is judged by the handler
		json.NewDecoder(bytes.NewReader(body)).Decode(&fr) //nolint:errcheck
		if !filter && (rr.Width > 256 && rr.Width <= 4096 || rr.Height > 256 && rr.Height <= 4096) {
			// A valid frame past 256² costs more than one execution should;
			// the 4096 limit itself stays in range.
			t.Skip("frame past the per-execution cost bound")
		}

		vols := store.NewMemory(nil)
		v, err := parseVolumeSpec("v=plume:8:zorder")
		if err != nil {
			t.Fatal(err)
		}
		if err := vols.Put(v); err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		cfg.slots, cfg.queueDepth = 1, 1
		s := newBareServer(t, vols, cfg)
		var renders atomic.Int32
		s.renderImage = func(_ context.Context, _ *sfcmem.AnyGrid, cam sfcmem.Camera, _ *sfcmem.TransferFunc, _ sfcmem.RenderOptions) (*sfcmem.Image, error) {
			renders.Add(1)
			return render.NewImage(cam.Width, cam.Height), nil
		}
		mux := s.mux()
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
			return rec
		}

		listed := fmt.Sprint(vols.List())
		rec := post()
		deadlineSet := !filter && rr.DeadlineMS > 0 || filter && fr.DeadlineMS > 0
		switch {
		case rec.Code == http.StatusBadRequest || rec.Code == http.StatusNotFound:
			if n := renders.Load(); n != 0 {
				t.Fatalf("%s %s: status %d, but the kernel ran %d times", route, body, rec.Code, n)
			}
			if now := fmt.Sprint(vols.List()); now != listed {
				t.Fatalf("%s %s: status %d, but the volume list went from %s to %s", route, body, rec.Code, listed, now)
			}
			return
		case rec.Code == http.StatusGatewayTimeout && deadlineSet:
			return
		case rec.Code != http.StatusOK:
			t.Fatalf("%s %s: status %d (%q), want 200, 400, 404, or 504 under a deadline", route, body, rec.Code, rec.Body)
		}
		if xc := rec.Header().Get("X-Cache"); xc != "miss" || rec.Header().Get("ETag") == "" {
			t.Fatalf("%s %s: first 200 has X-Cache %q, ETag %q; want a miss with a tag", route, body, xc, rec.Header().Get("ETag"))
		}
		first, rendered := rec.Body.Bytes(), renders.Load()
		if !filter && rendered != 1 {
			t.Fatalf("%s %s: a 200 miss ran the kernel %d times, want 1", route, body, rendered)
		}
		if filter && fr.Dst == fr.Src {
			// Filtered in place: the source moved on, so the repeat is a
			// new request and runs again.
			if again := post(); again.Code != http.StatusOK || again.Header().Get("X-Cache") != "miss" {
				t.Fatalf("%s %s in place: repeat status %d, X-Cache %q, want a 200 miss", route, body, again.Code, again.Header().Get("X-Cache"))
			}
			return
		}
		again := post()
		if again.Code != http.StatusOK || again.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%s %s: repeat status %d, X-Cache %q, want a 200 hit", route, body, again.Code, again.Header().Get("X-Cache"))
		}
		if !bytes.Equal(again.Body.Bytes(), first) {
			t.Fatalf("%s %s: the hit's %d bytes differ from the first response's %d", route, body, again.Body.Len(), len(first))
		}
		if n := renders.Load(); n != rendered {
			t.Fatalf("%s %s: the cache hit ran the kernel (%d calls, then %d)", route, body, rendered, n)
		}
	})
}
