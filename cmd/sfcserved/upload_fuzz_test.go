package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"sfcmem"
	"sfcmem/internal/store"
)

// maxFuzzUploadElems bounds the buffer one fuzz execution may allocate
// (64³ elements, padding included); inputs past it are skipped, not
// judged. The >512 extent and padded-buffer 413 paths are pinned by
// TestUploadVolume and TestPaddedBufferBounded.
const maxFuzzUploadElems = 64 * 64 * 64

// FuzzUploadVolume drives PUT /volumes/{name} through the service's mux
// over an in-memory store with arbitrary dtype, layout and extent
// query values and arbitrary body bytes. Every input must answer 201,
// 400 or 413 without panicking; 201 must come exactly when the query
// is valid and the body holds nx·ny·nz samples of the dtype; and the
// stored volume must read back as the uploaded bytes.
func FuzzUploadVolume(f *testing.F) {
	f.Add("uint8", "zorder", "4", "4", "4", make([]byte, 64))
	f.Add("float32", "array", "2", "3", "2", bytes.Repeat([]byte{0, 0, 0x80, 0x7f}, 12))
	f.Add("u16", "bit:xyzxyz", "4", "2", "2", make([]byte, 31))
	f.Add("float64", "hilbert", "2", "2", "2", make([]byte, 65))
	f.Add("", "", "3", "3", "3", make([]byte, 108))
	f.Add("int3", "bogus", "0", "four", "-1", []byte{1})
	f.Add("float32", "bit:yz"+"yyyyyyyyyyyyyyyyyyyyyyyyy"+"x", "2", "2", "2", make([]byte, 32))

	s := newBareServer(f, store.NewMemory(nil), testConfig())
	mux := s.mux()
	f.Fuzz(func(t *testing.T, dtype, layout, nx, ny, nz string, body []byte) {
		// The contract, derived independently of the handler.
		valid, tooLarge := true, false
		dtName, layoutName := dtype, layout
		if dtName == "" {
			dtName = "float32"
		}
		if layoutName == "" {
			layoutName = "zorder"
		}
		dt, err := sfcmem.ParseDtype(dtName)
		valid = valid && err == nil
		var dims [3]int
		for i, v := range []string{nx, ny, nz} {
			n, err := strconv.Atoi(v)
			if err != nil || n < 2 || n > 512 {
				valid = false
			}
			dims[i] = n
		}
		var want int
		if valid {
			l, err := sfcmem.ParseLayoutSpec(layoutName, dims[0], dims[1], dims[2])
			switch {
			case err != nil:
				valid = false
			case int64(l.Len())*int64(dt.Size()) > maxUploadBytes:
				tooLarge = true
			case l.Len() > maxFuzzUploadElems:
				t.Skip("buffer past the per-execution memory bound")
			}
			want = dims[0] * dims[1] * dims[2] * dt.Size()
		}

		q := url.Values{"dtype": {dtype}, "layout": {layout}, "nx": {nx}, "ny": {ny}, "nz": {nz}}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/volumes/v?"+q.Encode(), bytes.NewReader(body)))

		switch rec.Code {
		case http.StatusCreated, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d (body %q), want 201, 400 or 413", rec.Code, rec.Body)
		}
		if tooLarge {
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("buffer past the upload limit: status %d, want 413", rec.Code)
			}
			return
		}
		accept := valid && len(body) == want
		if got := rec.Code == http.StatusCreated; got != accept {
			t.Fatalf("status %d (body %q) for valid=%v, %d body bytes of %d", rec.Code, rec.Body, valid, len(body), want)
		}
		if !accept {
			return
		}
		v, err := s.store.Get("v")
		if err != nil {
			t.Fatal(err)
		}
		var back bytes.Buffer
		if err := sfcmem.SaveRawAny(&back, v.Grid); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Bytes(), body) {
			t.Fatalf("stored volume reads back %d bytes differing from the %d uploaded", back.Len(), len(body))
		}
	})
}
