package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sfcmem/internal/store"
)

// doDelete issues DELETE /volumes/{name} and returns the status code.
func doDelete(t *testing.T, a *app, name string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, "http://"+a.apiAddr()+"/volumes/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}

// uploadRaw PUTs body as a raw uint8 volume of edge n under name.
func uploadRaw(t *testing.T, a *app, name string, n int, body []byte) store.Info {
	t.Helper()
	url := fmt.Sprintf("http://%s/volumes/%s?dtype=uint8&layout=zorder&nx=%d&ny=%d&nz=%d",
		a.apiAddr(), name, n, n, n)
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s: status %d body %s", name, resp.StatusCode, b)
	}
	var info store.Info
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// renderRaw renders name in raw float32 framebuffer format and returns
// the response. The raw format makes byte-identity comparisons exact.
func renderRaw(t *testing.T, a *app, name string, inm string) *http.Response {
	t.Helper()
	body, err := json.Marshal(renderRequest{Volume: name, Width: 64, Height: 64, Workers: 2, Format: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+a.apiAddr()+"/render", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDeleteVolume drives DELETE /volumes/{name} over HTTP against
// both store variants: the volume disappears from every surface, a
// repeat delete is 404, and a re-created volume gets a strictly higher
// generation so an ETag minted before the delete can never validate.
func TestDeleteVolume(t *testing.T) {
	run := func(t *testing.T, cfg config) {
		a, _, _ := startApp(t, cfg)

		resp := renderRaw(t, a, "demo", "")
		frame1, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		etag1 := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || etag1 == "" {
			t.Fatalf("pre-delete render: status %d etag %q", resp.StatusCode, etag1)
		}

		if code := doDelete(t, a, "demo"); code != http.StatusNoContent {
			t.Fatalf("DELETE demo: status %d, want 204", code)
		}
		if code := doDelete(t, a, "demo"); code != http.StatusNotFound {
			t.Fatalf("repeat DELETE demo: status %d, want 404", code)
		}
		if code := doDelete(t, a, "never-existed"); code != http.StatusNotFound {
			t.Fatalf("DELETE unknown: status %d, want 404", code)
		}
		resp = renderRaw(t, a, "demo", "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("render after delete: status %d, want 404", resp.StatusCode)
		}
		lresp, err := http.Get("http://" + a.apiAddr() + "/volumes")
		if err != nil {
			t.Fatal(err)
		}
		var vols []store.Info
		if err := json.NewDecoder(lresp.Body).Decode(&vols); err != nil {
			t.Fatal(err)
		}
		lresp.Body.Close()
		for _, v := range vols {
			if v.Name == "demo" {
				t.Fatalf("deleted volume still listed: %+v", v)
			}
		}

		// Re-create the name with different contents. The generation
		// must be strictly higher than anything pre-delete, so the old
		// ETag must not 304 against the new volume.
		samples := make([]byte, 16*16*16)
		for i := range samples {
			samples[i] = byte(i * 13)
		}
		info := uploadRaw(t, a, "demo", 16, samples)
		if info.Gen != 2 {
			t.Fatalf("re-created gen = %d, want 2 (delete must not reset the counter)", info.Gen)
		}
		resp = renderRaw(t, a, "demo", etag1)
		frame2, _ := io.ReadAll(resp.Body)
		etag2 := resp.Header.Get("ETag")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stale ETag validated against re-created volume: status %d", resp.StatusCode)
		}
		if etag2 == etag1 {
			t.Fatal("re-created volume reuses the pre-delete ETag")
		}
		if bytes.Equal(frame1, frame2) {
			t.Fatal("re-created volume renders the deleted contents")
		}
	}
	t.Run("ram", func(t *testing.T) { run(t, testConfig()) })
	t.Run("tiered", func(t *testing.T) {
		cfg := testConfig()
		cfg.dataDir = t.TempDir()
		run(t, cfg)
	})
}

// TestRestartRoundTrip is the persistence acceptance test end to end:
// upload, drain the process, restart a new one on the same -data-dir
// with a RAM budget far below the volume sizes (every render must
// demand-page its volume from bricks), and require the byte-identical
// frame — same sha256 — from the restarted service.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.dataDir = dir
	cfg.storeRAMBytes = 2048 // demo is 16 KiB, the upload 4 KiB: nothing stays resident

	a1, cancel1, done1 := startApp(t, cfg)
	samples := make([]byte, 16*16*16)
	rng := rand.New(rand.NewSource(42))
	rng.Read(samples) //nolint:errcheck // never fails
	if info := uploadRaw(t, a1, "up", 16, samples); info.Gen != 1 || info.Resident {
		t.Fatalf("upload info %+v: want gen 1, evicted immediately under the tiny budget", info)
	}
	resp := renderRaw(t, a1, "up", "")
	frame1, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first render: status %d body %s", resp.StatusCode, frame1)
	}
	cancel1() // SIGTERM path: drain and exit
	err := <-done1
	done1 <- err // put it back for startApp's cleanup
	if err != nil {
		t.Fatalf("drain: %v", err)
	}

	a2, _, _ := startApp(t, cfg)
	if in, ok := a2.srv.store.Stat("up"); !ok || in.Gen != 1 || in.Resident {
		t.Fatalf("restarted Stat(up) = %+v, %v: want gen 1, not resident until rendered", in, ok)
	}
	// The -volume spec re-synthesized demo over its persisted copy, so
	// its generation climbed — proof the manifest floor survived.
	if in, ok := a2.srv.store.Stat("demo"); !ok || in.Gen != 2 {
		t.Fatalf("restarted Stat(demo) = %+v, %v: want gen 2", in, ok)
	}
	resp = renderRaw(t, a2, "up", "")
	frame2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted render: status %d body %s", resp.StatusCode, frame2)
	}
	h1, h2 := sha256.Sum256(frame1), sha256.Sum256(frame2)
	if h1 != h2 {
		t.Fatalf("restart changed the frame: %x vs %x", h1, h2)
	}
	// The frame came off the disk tier, not a warm copy: the ops-port
	// metrics snapshot must show at least one demand load.
	mresp, err := http.Get("http://" + a2.opsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	var loads struct {
		Total uint64 `json:"total"`
	}
	if err := json.Unmarshal(snap["store.loads"], &loads); err != nil {
		t.Fatalf("store.loads missing from /metrics: %v", err)
	}
	if loads.Total < 1 {
		t.Fatalf("store.loads = %d, want >= 1 (render must have demand-paged)", loads.Total)
	}
}

// TestCorruptedBrickRejectedE2E flips one payload bit in a persisted
// brick between runs: the restarted service must answer 500 with the
// integrity failure spelled out, never a frame of corrupt data.
func TestCorruptedBrickRejectedE2E(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.dataDir = dir

	a1, cancel1, done1 := startApp(t, cfg)
	samples := make([]byte, 16*16*16)
	uploadRaw(t, a1, "up", 16, samples)
	cancel1()
	err := <-done1
	done1 <- err // put it back for startApp's cleanup
	if err != nil {
		t.Fatalf("drain: %v", err)
	}

	bricks, err := filepath.Glob(filepath.Join(dir, "up-*", "g1", "00000.sfcb"))
	if err != nil || len(bricks) != 1 {
		t.Fatalf("glob bricks: %v %v", bricks, err)
	}
	b, err := os.ReadFile(bricks[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x80
	if err := os.WriteFile(bricks[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	a2, _, _ := startApp(t, cfg)
	resp := renderRaw(t, a2, "up", "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("render of corrupted volume: status %d body %s, want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "sha256") || !strings.Contains(string(body), `"up"`) {
		t.Fatalf("corruption error should name the volume and digest: %s", body)
	}
}
