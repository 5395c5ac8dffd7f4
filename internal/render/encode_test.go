package render

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"image"
	"image/draw"
	"image/png"
	"io"
	"math"
	"sort"
	"sync"
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/volume"
)

// encodeScene is the golden-encode input: a shaded render of the
// combustion plume plus a ramp image whose channels sweep [0, 1.25]
// finely enough to cross every gamma threshold, under partial alpha so
// the background blend runs too.
func encodeScene(t *testing.T) []*Image {
	t.Helper()
	const vn = 32
	vol := volume.CombustionPlume(core.NewZOrder(vn, vn, vn), 3)
	frame, err := Render(vol, Orbit(1, 8, vn, vn, vn, 64, 64), DefaultTransferFunc(), Options{Workers: 2, Shade: true})
	if err != nil {
		t.Fatal(err)
	}
	ramp := NewImage(256, 64)
	for y := 0; y < ramp.H; y++ {
		for x := 0; x < ramp.W; x++ {
			v := float32(y*ramp.W+x) / float32(ramp.W*ramp.H) * 1.25
			ramp.Set(x, y, RGBA{v, v * v, 1.25 - v, float32(x%5) / 4})
		}
	}
	return []*Image{frame, ramp}
}

// goldenEncode pins the 8-bit output of the PNG path (the NRGBA pixels
// png.Encode compresses) and of WritePPM for encodeScene, captured with
// the math.Pow gamma encoder.
const (
	goldenNRGBA = "0ded8fb334935b7e3aaccb1e7277006c1fc9d60fc8615bef3728d737cb115b73"
	goldenPPM   = "f40b69bcbb3554fbf559dc948a362b04581ba331fc23141b4dca07b76090cafa"
)

func TestGoldenEncode(t *testing.T) {
	hn, hp := sha256.New(), sha256.New()
	for _, im := range encodeScene(t) {
		hn.Write(im.ToNRGBA().Pix)
		if err := im.WritePPM(hp); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprintf("%x", hn.Sum(nil)); got != goldenNRGBA {
		t.Errorf("NRGBA pixels: hash %s, want %s", got, goldenNRGBA)
	}
	if got := fmt.Sprintf("%x", hp.Sum(nil)); got != goldenPPM {
		t.Errorf("PPM bytes: hash %s, want %s", got, goldenPPM)
	}
}

// TestTo8MatchesPow checks the threshold encoder against the math.Pow
// reference within 4096 ulps on either side of every threshold — the
// only places where the two could disagree, since both are monotone —
// and at the special values: zero, the background, 1, above 1, +Inf
// (all as the reference), and NaN and negatives (0).
func TestTo8MatchesPow(t *testing.T) {
	check := func(v float32) {
		if got, want := to8(v), gamma8(v); got != want {
			t.Fatalf("to8(%v) = %d, math.Pow reference %d", v, got, want)
		}
	}
	for _, th := range gammaThresholds {
		bits := math.Float32bits(th)
		for d := uint32(0); d <= 4096; d++ {
			check(math.Float32frombits(bits + d))
			if d <= bits {
				check(math.Float32frombits(bits - d))
			}
		}
	}
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), bg, 0.5, 1, 1.0000001, 1.25, 7, float32(math.Inf(1))} {
		check(v)
	}
	for _, v := range []float32{float32(math.NaN()), -1e-30, -0.5, float32(math.Inf(-1))} {
		if got := to8(v); got != 0 {
			t.Errorf("to8(%v) = %d, want 0", v, got)
		}
	}
}

// countThresholds is the reference to8 counts against: the number of
// gamma thresholds at or below v, by binary search.
func countThresholds(v float32) int {
	return sort.Search(len(gammaThresholds), func(i int) bool { return gammaThresholds[i] > v })
}

// TestGammaStartOneStep checks the table to8 starts from: every entry
// is exact at its bucket's smallest value, and the bucket's largest
// value is at most one threshold further — so to8's single correction
// step reaches the exact count for every value in [0, 1).
func TestGammaStartOneStep(t *testing.T) {
	for b, start := range gammaStart {
		lo := math.Float32frombits(uint32(b) << 16)
		hi := math.Float32frombits(uint32(b)<<16 | 0xFFFF)
		if n := countThresholds(lo); int(start) != n {
			t.Fatalf("gammaStart[%#x] = %d, want %d (count at %v)", b, start, n, lo)
		}
		if n := countThresholds(hi); n-int(start) > 1 {
			t.Fatalf("bucket %#x spans codes %d..%d: more than one correction step", b, start, n)
		}
	}
}

// TestTo8Strided compares to8 with the math.Pow reference on every
// 997th float32 bit pattern in [0, 2).
func TestTo8Strided(t *testing.T) {
	for b := uint32(0); b < math.Float32bits(2); b += 997 {
		v := math.Float32frombits(b)
		if got, want := to8(v), gamma8(v); got != want {
			t.Fatalf("to8(%v) = %d, math.Pow reference %d", v, got, want)
		}
	}
}

// TestWritePNGConcurrent encodes frames from many goroutines at once
// through the shared encoder and its buffer pool (run under -race by
// make race); every PNG must decode to exactly its frame's ToNRGBA
// pixels.
func TestWritePNGConcurrent(t *testing.T) {
	scene := encodeScene(t)
	var frames []*Image
	for i := 0; i < 16; i++ {
		src := scene[i%len(scene)]
		im := NewImage(src.W, src.H)
		for j, p := range src.pix {
			s := 1 - float32(i)/32 // each goroutine encodes different bytes
			im.pix[j] = RGBA{p.R * s, p.G * s, p.B * s, p.A}
		}
		frames = append(frames, im)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(frames))
	for i, im := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				var buf bytes.Buffer
				if err := im.WritePNG(&buf); err != nil {
					errs[i] = err
					return
				}
				dec, err := png.Decode(&buf)
				if err != nil {
					errs[i] = err
					return
				}
				got := image.NewNRGBA(dec.Bounds())
				draw.Draw(got, got.Rect, dec, dec.Bounds().Min, draw.Src)
				if !bytes.Equal(got.Pix, im.ToNRGBA().Pix) {
					errs[i] = fmt.Errorf("frame %d rep %d: decoded PNG differs from ToNRGBA", i, rep)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkWritePNG encodes a 128² plume frame, the service's render
// miss; bytes/frame is the PNG size.
func BenchmarkWritePNG(b *testing.B) {
	const vn = 64
	vol := volume.CombustionPlume(core.NewZOrder(vn, vn, vn), 1)
	img, err := Render(vol, Orbit(1, 8, vn, vn, vn, 128, 128), DefaultTransferFunc(), Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := img.WritePNG(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/frame")
}

// TestRenderNaNVoxel renders a plume holding one NaN voxel on both
// access paths, with shading and empty-space skipping: Eval maps NaN
// like 0 instead of indexing its table at a negative slot, so no path
// panics, and the frame still encodes.
func TestRenderNaNVoxel(t *testing.T) {
	const n = 16
	vol := volume.CombustionPlume(core.NewZOrder(n, n, n), 5)
	vol.Set(n/2, n/2, n/2, float32(math.NaN()))
	cam := Orbit(1, 8, n, n, n, 32, 32)
	for _, o := range []Options{
		{Workers: 2},
		{Workers: 2, Shade: true},
		{Workers: 2, Accel: BuildAccelOf(vol, DefaultTransferFunc())},
		{Workers: 2, Shade: true, NoFastPath: true},
	} {
		img, err := Render(vol, cam, DefaultTransferFunc(), o)
		if err != nil {
			t.Fatal(err)
		}
		if err := img.WritePNG(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if c := DefaultTransferFunc().Eval(float32(math.NaN())); c != DefaultTransferFunc().Eval(0) {
		t.Errorf("Eval(NaN) = %v, want Eval(0)", c)
	}
}
