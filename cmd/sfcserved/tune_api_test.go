package main

// End-to-end coverage of POST /volumes/{name}/tune: the background
// tune job finds an interleave no worse than Z order, installs it in
// the manifest under a bumped generation, renders byte-identically to
// the pre-tune volume, survives a restart from the disk tier, and
// shows up in the tune.* metrics family.

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"sfcmem/internal/store"
)

// postTune submits a tune job for the named volume and returns the
// accepted job ID.
func postTune(t *testing.T, base, name string, req tuneRequest) string {
	t.Helper()
	resp := postJSON(t, base+"/volumes/"+name+"/tune", req)
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST tune: status %d body %s", resp.StatusCode, b)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &acc); err != nil || acc.ID == "" {
		t.Fatalf("tune response %s (err %v)", b, err)
	}
	return acc.ID
}

// watchTune follows the job's SSE stream to its terminal event and
// returns the decoded "result" payload.
func watchTune(t *testing.T, base, id string) tuneOutcome {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var out tuneOutcome
	haveResult := false
	for {
		ev, err := readSSE(br)
		if err != nil {
			t.Fatalf("SSE stream ended early: %v", err)
		}
		switch ev.event {
		case "result":
			if err := json.Unmarshal(ev.data, &out); err != nil {
				t.Fatalf("result payload %s: %v", ev.data, err)
			}
			haveResult = true
		case "failed", "cancelled":
			t.Fatalf("tune job %s: %s", ev.event, ev.data)
		case "done":
			if !haveResult {
				t.Fatal("job done without a result event")
			}
			return out
		}
	}
}

// volumeInfo fetches the /volumes listing entry for name.
func volumeInfo(t *testing.T, base, name string) store.Info {
	t.Helper()
	resp, err := http.Get(base + "/volumes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vols []store.Info
	if err := json.NewDecoder(resp.Body).Decode(&vols); err != nil {
		t.Fatal(err)
	}
	for _, v := range vols {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("volume %q not listed", name)
	return store.Info{}
}

// TestTuneCancelFreesRunSlot cancels a running 32³ search at -slots 1.
// Uncancelled, the search replays up to 64 × 33 candidates (minutes);
// cancelled, it must stop within one replay, reach the cancelled
// state, and free the only run slot for a sync render that may wait
// no more than 5 s for it.
func TestTuneCancelFreesRunSlot(t *testing.T) {
	cfg := testConfig()
	cfg.slots = 1
	cfg.volumes = []string{"demo=plume:32:zorder"}
	a, _, _ := startApp(t, cfg)
	base := "http://" + a.apiAddr()

	id := postTune(t, base, "demo", tuneRequest{Seed: 1, Population: 64, Generations: 32})
	waitFor(t, "tune job running", func() bool { return jobState(t, base, id) == "running" })
	waitFor(t, "run slot held by the search", func() bool { return len(a.srv.run) == 1 })
	time.Sleep(50 * time.Millisecond) // into the candidate loop

	dreq, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /jobs/%s: status %d", id, dresp.StatusCode)
	}
	waitFor(t, "tune job cancelled", func() bool { return jobState(t, base, id) == "cancelled" })

	resp := postJSON(t, base+"/render", renderRequest{Volume: "demo", Width: 32, Height: 32, DeadlineMS: 5000})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync render after the cancel: status %d, want 200 (run slot still held?)", resp.StatusCode)
	}
	if got := a.srv.jobs.Stats().Cancelled; got != 1 {
		t.Errorf("cancelled counter %d, want 1", got)
	}
}

func TestTuneEndToEnd(t *testing.T) {
	a, _, _ := startApp(t, testConfig()) // demo=plume:16:zorder
	base := "http://" + a.apiAddr()

	resp := renderRaw(t, a, "demo", "")
	before, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-tune render: status %d", resp.StatusCode)
	}

	id := postTune(t, base, "demo", tuneRequest{Seed: 1, Population: 6, Generations: 2})
	out := watchTune(t, base, id)

	if !strings.HasPrefix(out.Layout, "bit:") {
		t.Fatalf("tuned layout %q, want a bit: spec", out.Layout)
	}
	if out.Previous != "zorder" {
		t.Errorf("previous layout %q, want zorder", out.Previous)
	}
	if out.TunedMisses > out.ZOrderMisses {
		t.Errorf("tuned layout scored %d misses, worse than z-order's %d", out.TunedMisses, out.ZOrderMisses)
	}
	if !out.Applied || out.Candidates < 2 {
		t.Errorf("outcome %+v: want applied with several candidates", out)
	}

	// The winning layout is installed in the manifest under a bumped
	// generation.
	in := volumeInfo(t, base, "demo")
	if in.Layout != out.Layout {
		t.Errorf("manifest layout %q, want %q", in.Layout, out.Layout)
	}
	if in.Gen < 2 || out.Gen != in.Gen {
		t.Errorf("gen %d (result says %d), want a bump past 1", in.Gen, out.Gen)
	}

	// Re-layout is a pure copy: the post-tune render is byte-identical
	// (same sha256) to the pre-tune Z-order render.
	resp = renderRaw(t, a, "demo", "")
	after, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-tune render: status %d", resp.StatusCode)
	}
	if h1, h2 := sha256.Sum256(before), sha256.Sum256(after); h1 != h2 {
		t.Fatalf("tuned volume renders differently: %x vs %x", h1, h2)
	}

	// The tune.* metrics family recorded the run.
	mresp, err := http.Get("http://" + a.opsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	var reqs, applied struct {
		Total uint64 `json:"total"`
	}
	if err := json.Unmarshal(snap["tune.requests"], &reqs); err != nil || reqs.Total < 1 {
		t.Errorf("tune.requests = %s (err %v), want >= 1", snap["tune.requests"], err)
	}
	if err := json.Unmarshal(snap["tune.applied"], &applied); err != nil || applied.Total < 1 {
		t.Errorf("tune.applied = %s (err %v), want >= 1", snap["tune.applied"], err)
	}
}

func TestTuneNoApply(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	base := "http://" + a.apiAddr()

	noApply := false
	id := postTune(t, base, "demo", tuneRequest{Population: 4, Generations: 1, Apply: &noApply})
	out := watchTune(t, base, id)
	if out.Applied || out.Gen != 0 {
		t.Errorf("apply=false outcome %+v: volume must be untouched", out)
	}
	if in := volumeInfo(t, base, "demo"); in.Layout != "zorder" || in.Gen != 1 {
		t.Errorf("apply=false changed the volume: %+v", in)
	}
}

func TestTuneValidation(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	base := "http://" + a.apiAddr()

	cases := []struct {
		name string
		vol  string
		req  tuneRequest
		code int
	}{
		{"unknown volume", "nope", tuneRequest{}, http.StatusNotFound},
		{"bad kernel", "demo", tuneRequest{Kernel: "fft"}, http.StatusBadRequest},
		{"bad lane", "demo", tuneRequest{Priority: "urgent"}, http.StatusBadRequest},
		{"oversized search", "demo", tuneRequest{Population: 1000}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, base+"/volumes/"+c.vol+"/tune", c.req)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.code)
		}
	}
}

// TestTunedVolumeRestartRoundTrip extends the persistence round-trip
// to a tuned layout: tune an uploaded volume on a disk-backed store
// (a -volume spec would be re-synthesized over the tuned copy at the
// next boot, so an upload is the name that must survive), drain,
// restart, and require (a) the manifest still carries the bit:
// interleave string and (b) the restarted render is byte-identical to
// the pre-restart one — the layout spec reconstructed exactly from
// the manifest.
func TestTunedVolumeRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.dataDir = dir

	a1, cancel1, done1 := startApp(t, cfg)
	base1 := "http://" + a1.apiAddr()
	samples := make([]byte, 16*16*16)
	rng := rand.New(rand.NewSource(7))
	rng.Read(samples) //nolint:errcheck // never fails
	uploadRaw(t, a1, "up", 16, samples)
	id := postTune(t, base1, "up", tuneRequest{Seed: 1, Population: 6, Generations: 2})
	out := watchTune(t, base1, id)
	if !out.Applied || !strings.HasPrefix(out.Layout, "bit:") {
		t.Fatalf("tune outcome %+v: want an applied bit: layout", out)
	}
	resp := renderRaw(t, a1, "up", "")
	frame1, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-restart render: status %d", resp.StatusCode)
	}
	cancel1()
	err := <-done1
	done1 <- err // put it back for startApp's cleanup
	if err != nil {
		t.Fatalf("drain: %v", err)
	}

	a2, _, _ := startApp(t, cfg)
	in, ok := a2.srv.store.Stat("up")
	if !ok || in.Layout != out.Layout {
		t.Fatalf("restarted Stat(up) = %+v, %v: want the tuned layout %q", in, ok, out.Layout)
	}
	resp = renderRaw(t, a2, "up", "")
	frame2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart render: status %d body %s", resp.StatusCode, frame2)
	}
	if h1, h2 := sha256.Sum256(frame1), sha256.Sum256(frame2); h1 != h2 {
		t.Fatalf("restart changed the tuned frame: %x vs %x", h1, h2)
	}
}
