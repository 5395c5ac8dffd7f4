package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"sfcmem/internal/jobs"
	"sfcmem/internal/store"
	"sfcmem/internal/tune"
)

// FuzzTuneRequest drives POST /volumes/{name}/tune through the
// service's mux, against a fresh in-memory store holding one 8³ volume
// "v" per execution, with arbitrary body fields; a non-empty raw
// replaces the whole body. Every input must answer 202, 400 or 404
// without panicking. A 4xx must leave the volume list (generations
// included) unchanged and jobs.submitted at zero. A 202 must come back
// exactly for a body that decodes with every field in range. The test
// holds the only run slot, so an accepted job waits for it; the job is
// then cancelled, must end cancelled, and must have changed nothing.
func FuzzTuneRequest(f *testing.F) {
	f.Add("v", "", uint64(0), 0, 0, 0, false, false, "", []byte(nil))
	f.Add("v", "volrend", uint64(7), 6, 2, 1, true, false, "interactive", []byte(nil))
	f.Add("v", "bilateral", uint64(1), 64, 32, 16, true, true, "bulk", []byte(nil))
	f.Add("v", "bilateral", uint64(1), 65, 3, 2, false, false, "", []byte(nil))
	f.Add("v", "", uint64(0), -4, -1, 17, false, false, "", []byte(nil))
	f.Add("v", "median", uint64(0), 0, 0, 0, false, false, "urgent", []byte(nil))
	f.Add("nope", "volrend", uint64(0), 0, 0, 0, false, false, "", []byte(nil))
	f.Add("v", "", uint64(0), 0, 0, 0, false, false, "", []byte(`{"seed":-1}`))
	f.Add("v", "", uint64(0), 0, 0, 0, false, false, "", []byte(`{"population":1e400}`))
	f.Add("v", "", uint64(0), 0, 0, 0, false, false, "", []byte(`{"apply":"yes"}`))
	f.Add("v", "", uint64(0), 0, 0, 0, false, false, "", []byte(`{"generations":2} trailing`))
	f.Add("v", "", uint64(0), 0, 0, 0, false, false, "", []byte(`not json`))

	f.Fuzz(func(t *testing.T, name, kernel string, seed uint64, population, generations, workers int,
		setApply, apply bool, priority string, raw []byte) {
		if name == "" || name == "." || name == ".." {
			t.Skip("not a single path segment")
		}
		body := raw
		if len(body) == 0 {
			req := tuneRequest{Kernel: kernel, Seed: seed, Population: population, Generations: generations,
				Workers: workers, Priority: priority}
			if setApply {
				req.Apply = &apply
			}
			var err error
			if body, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
		}
		if len(body) > 1<<20 {
			t.Skip("past the handler's body limit") // the oracle below does not model it
		}
		// The request as the handler decodes it, for the contract below.
		var req tuneRequest
		derr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		_, kerr := tune.ParseKernel(valueOr(req.Kernel, string(tune.KernelBilateral)))
		_, lerr := jobs.ParseLane(valueOr(req.Priority, "bulk"))
		inRange := (derr == nil || errors.Is(derr, io.EOF)) && kerr == nil && lerr == nil &&
			req.Population <= 64 && req.Generations <= 32 && req.Workers <= 16 && name == "v"

		vols := store.NewMemory(nil)
		v, err := parseVolumeSpec("v=plume:8:zorder")
		if err != nil {
			t.Fatal(err)
		}
		if err := vols.Put(v); err != nil {
			t.Fatal(err)
		}
		before := vols.List()
		cfg := testConfig()
		cfg.slots, cfg.queueDepth = 1, 1
		s := newBareServer(t, vols, cfg)
		s.run <- struct{}{} // hold the only run slot
		defer func() { <-s.run }()

		rec := httptest.NewRecorder()
		path := "/volumes/" + url.PathEscape(name) + "/tune"
		s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		submitted := s.jobs.Stats().Submitted
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound:
			if inRange {
				t.Fatalf("status %d (%q) for %s on %q, whose fields are in range", rec.Code, rec.Body, body, name)
			}
			if submitted != 0 {
				t.Fatalf("status %d (%q) for %s, but %d jobs reached the scheduler", rec.Code, rec.Body, body, submitted)
			}
			if after := vols.List(); !reflect.DeepEqual(after, before) {
				t.Fatalf("status %d for %s changed the volumes: %+v, was %+v", rec.Code, body, after, before)
			}
			return
		case http.StatusAccepted:
		default:
			t.Fatalf("status %d (%q) for %s, want 202, 400 or 404", rec.Code, rec.Body, body)
		}
		if !inRange {
			t.Fatalf("202 for %s on %q, whose fields are out of range", body, name)
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
		j.Cancel()
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("cancelled job for %s stuck in state %s", body, j.State())
		}
		if j.State() != jobs.StateCancelled {
			t.Fatalf("cancelled job for %s ended %s: %s", body, j.State(), j.Err())
		}
		if after := vols.List(); !reflect.DeepEqual(after, before) {
			t.Fatalf("a cancelled tune for %s changed the volumes: %+v, was %+v", body, after, before)
		}
	})
}
