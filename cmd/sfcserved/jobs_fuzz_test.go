package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sfcmem/internal/jobs"
	"sfcmem/internal/store"
)

// FuzzCreateJob drives POST /jobs through the service's mux, against a
// fresh in-memory store holding one 8³ volume "v" per execution, with
// arbitrary job-level fields (op, priority, coarse_level) and embedded
// render and filter fields; a non-empty raw replaces the whole body.
// Every input must answer 202, 400 or 404 without panicking. A 4xx must
// leave jobs.submitted at zero, so no input the API refuses reaches the
// scheduler or a kernel, and a 202 job must run to done: validation
// passed it, so nothing in the kernel path may fail it either.
func FuzzCreateJob(f *testing.F) {
	f.Add("", "", 2, false, uint8(1), "v", 1, 8, 32, 32, 1, "", "", false, "", "", "", 0, "", 0.0, []byte(nil))
	f.Add("render", "bulk", 0, true, uint8(1), "v", 0, 0, 16, 16, 2, "raw", "uint8", true, "", "", "", 0, "", 0.0, []byte(nil))
	f.Add("render", "interactive", 4, true, uint8(3), "v", -3, 5, 0, 0, 0, "png", "float64", false, "v", "", "gaussian", 1, "z", 0.0, []byte(nil))
	f.Add("filter", "", 0, false, uint8(2), "", 0, 0, 0, 0, 0, "", "", false, "v", "v.out", "bilateral", 2, "y", 0.5, []byte(nil))
	f.Add("filter", "bulk", 0, false, uint8(2), "", 0, 0, 0, 0, 0, "", "", false, "v", "v", "gaussian", 8, "x", 0.0, []byte(nil))
	f.Add("filter", "bulk", 0, false, uint8(2), "", 0, 0, 0, 0, 0, "", "", false, "v", "v", "bilateral", 1, "x", -0.5, []byte(nil))
	f.Add("render", "", 9, true, uint8(1), "v", 0, 0, 0, 0, 0, "", "", false, "", "", "", 0, "", 0.0, []byte(nil))
	f.Add("compress", "urgent", -1, true, uint8(0), "nope", 0, 0, 5000, 0, 300, "gif", "int3", false, "nope", "", "median", 9, "w", -1.0, []byte(nil))
	f.Add("filter", "", 0, false, uint8(1), "v", 0, 0, 0, 0, 0, "", "", false, "", "", "", 0, "", 0.0, []byte(nil))
	f.Add("", "", 0, false, uint8(0), "", 0, 0, 0, 0, 0, "", "", false, "", "", "", 0, "", 0.0, []byte(`{"render":{"volume":"v","width":"wide"}}`))
	f.Add("", "", 0, false, uint8(0), "", 0, 0, 0, 0, 0, "", "", false, "", "", "", 0, "", 0.0, []byte(`{"op":"render","render":{"volume":"v"},"coarse_level":1e400}`))

	f.Fuzz(func(t *testing.T, op, priority string, coarse int, setCoarse bool, bodies uint8,
		volume string, view, views, width, height, workers int, format, dtype string, shade bool,
		src, dst, kernel string, radius int, axis string, sigma float64, raw []byte) {
		body := raw
		if len(body) == 0 {
			req := jobRequest{Op: op, Priority: priority}
			if setCoarse {
				req.CoarseLevel = &coarse
			}
			if bodies&1 != 0 {
				// A valid frame past 256² costs more than one execution
				// should; the 4096 limit itself stays in range.
				if width > 256 && width <= 4096 || height > 256 && height <= 4096 {
					t.Skip("frame past the per-execution cost bound")
				}
				req.Render = &renderRequest{Volume: volume, View: view, Views: views, Width: width, Height: height,
					Workers: workers, Format: format, Dtype: dtype, Shade: shade}
			}
			if bodies&2 != 0 {
				req.Filter = &filterRequest{Src: src, Dst: dst, Kernel: kernel, Radius: radius, Axis: axis,
					SigmaRange: sigma, Workers: workers, Dtype: dtype}
			}
			var err error
			if body, err = json.Marshal(req); err != nil {
				t.Skip("not representable as JSON:", err) // NaN or ±Inf sigma
			}
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

		rec := httptest.NewRecorder()
		s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		submitted := s.jobs.Stats().Submitted
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound:
			if submitted != 0 {
				t.Fatalf("status %d (%q) for %s, but %d jobs reached the scheduler", rec.Code, rec.Body, body, submitted)
			}
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("status %d (%q) for %s, want 202, 400 or 404", rec.Code, rec.Body, body)
		}
		var acc struct {
			ID    string     `json:"id"`
			State jobs.State `json:"state"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil || acc.State != jobs.StateQueued || submitted != 1 {
			t.Fatalf("202 body %q (err %v) after %d submissions, want one queued job", rec.Body, err, submitted)
		}
		j, ok := s.jobs.Get(acc.ID)
		if !ok {
			t.Fatalf("accepted job %s unknown to the manager", acc.ID)
		}
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("job for %s stuck in state %s", body, j.State())
		}
		if j.State() != jobs.StateDone {
			t.Fatalf("job for %s ended %s: %s", body, j.State(), j.Err())
		}
	})
}
