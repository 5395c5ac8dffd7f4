package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"testing"

	"sfcmem"
)

// TestNaNVolumeServes uploads a float32 volume holding one NaN voxel —
// a raw PUT body can carry any bit pattern — and renders and filters
// it. Both kernels run on worker goroutines without a recover, so a
// panic there would take the whole process down; instead both requests
// answer 200, the filtered volume renders too, and the server stays up.
func TestNaNVolumeServes(t *testing.T) {
	a, _, _ := startApp(t, testConfig())
	base := "http://" + a.apiAddr()

	const n = 16
	src := sfcmem.MRIPhantomAny(sfcmem.F32, sfcmem.NewLayout(sfcmem.Array, n, n, n), 5, 0.05)
	sfcmem.Grids[float32](src).Set(n/2, n/2, n/2, float32(math.NaN()))
	var raw bytes.Buffer
	if err := sfcmem.SaveRawAny(&raw, src); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/volumes/nan?dtype=float32&layout=zorder&nx=16&ny=16&nz=16", &raw)
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
		t.Fatalf("upload: status %d body %s", resp.StatusCode, body)
	}

	for _, step := range []struct {
		path string
		body any
	}{
		{"/render", renderRequest{Volume: "nan", Width: 32, Height: 32, Workers: 2}},
		{"/filter", filterRequest{Src: "nan", Radius: 1, Workers: 2}},
		{"/render", renderRequest{Volume: "nan.filtered", Width: 32, Height: 32, Workers: 2}},
	} {
		resp := postJSON(t, base+step.path, step.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %+v: status %d body %s", step.path, step.body, resp.StatusCode, body)
		}
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after NaN requests: status %d", resp.StatusCode)
	}
}
