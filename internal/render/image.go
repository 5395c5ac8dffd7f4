package render

import (
	"bufio"
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"os"
	"sync"
)

// Image is a float32 RGBA framebuffer.
type Image struct {
	W, H int
	pix  []RGBA
}

// NewImage allocates a transparent-black image.
func NewImage(w, h int) *Image {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("render: image size %dx%d must be positive", w, h))
	}
	return &Image{W: w, H: h, pix: make([]RGBA, w*h)}
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) RGBA { return im.pix[y*im.W+x] }

// Set stores the pixel at (x, y).
func (im *Image) Set(x, y int, c RGBA) { im.pix[y*im.W+x] = c }

// MeanAlpha returns the average alpha over the image: a cheap scalar
// fingerprint used by tests to confirm a view actually hit the volume.
func (im *Image) MeanAlpha() float64 {
	var sum float64
	for _, p := range im.pix {
		sum += float64(p.A)
	}
	return sum / float64(len(im.pix))
}

// MaxDiff returns the largest absolute per-channel difference between
// two images; it panics on size mismatch.
func MaxDiff(a, b *Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic("render: MaxDiff size mismatch")
	}
	var m float64
	for i := range a.pix {
		p, q := a.pix[i], b.pix[i]
		for _, d := range []float64{
			math.Abs(float64(p.R - q.R)),
			math.Abs(float64(p.G - q.G)),
			math.Abs(float64(p.B - q.B)),
			math.Abs(float64(p.A - q.A)),
		} {
			if d > m {
				m = d
			}
		}
	}
	return m
}

// bg is the dark background the 8-bit encoders composite frames over.
const bg = 0.02

// gamma8 is the reference 8-bit gamma encoder for v >= 0: v^(1/2.2),
// clamped to [0, 1] and rounded half up. to8 reproduces it without
// math.Pow. (Below 0 and at NaN, math.Pow returns NaN, whose uint8
// conversion is platform-defined.)
func gamma8(v float32) uint8 {
	f := math.Pow(float64(v), 1/2.2)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return uint8(f*255 + 0.5)
}

// gammaThresholds[k-1] is the smallest float32 that gamma8 encodes as k
// or more, found by bisecting gamma8 over the float32 bit patterns of
// [0, 1] (their order is the order of the values, and gamma8 is
// monotone there). gamma8(1) = 255, so every threshold is at most 1.
var gammaThresholds = func() (th [255]float32) {
	one := math.Float32bits(1)
	for k := range th {
		lo, hi := uint32(0), one // gamma8(lo) <= k < gamma8(hi)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if int(gamma8(math.Float32frombits(mid))) > k {
				hi = mid
			} else {
				lo = mid
			}
		}
		th[k] = math.Float32frombits(hi)
	}
	return th
}()

// gammaStart[b] is the code of the smallest float32 whose top 16 bits
// are b, for every b below the top bits of 1: a lower bound on the code
// of each value in that bucket. A bucket spans 2⁻⁷ of its values'
// magnitude, less than one code step anywhere in [0, 1), so the bound is
// at most one threshold short.
var gammaStart = func() (start [0x3F80]uint8) {
	n := 0
	for b := range start {
		v := math.Float32frombits(uint32(b) << 16)
		for n < len(gammaThresholds) && gammaThresholds[n] <= v {
			n++
		}
		start[b] = uint8(n)
	}
	return start
}()

// to8 gamma-encodes a linear channel value to 8 bits: the number of
// thresholds at or below v, read from gammaStart and corrected by one
// threshold comparison. It equals gamma8 for every v >= 0 (1 and above,
// +Inf included, encode as 255); NaN and negative values encode as 0.
func to8(v float32) uint8 {
	switch b := math.Float32bits(v); {
	case b < 0x3F800000: // [0, 1)
		n := gammaStart[b>>16]
		if n < 255 && gammaThresholds[n] <= v {
			n++
		}
		return n
	case b <= 0x7F800000: // [1, +Inf]
		return 255
	default: // NaN, or the sign bit set
		return 0
	}
}

// WritePPM writes the image as a binary PPM (P6) over a dark
// background, clamping and gamma-correcting to 8-bit.
func (im *Image) WritePPM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	buf := make([]byte, 0, im.W*3)
	for y := 0; y < im.H; y++ {
		buf = buf[:0]
		for x := 0; x < im.W; x++ {
			p := im.At(x, y)
			rem := 1 - p.A
			buf = append(buf, to8(p.R+rem*bg), to8(p.G+rem*bg), to8(p.B+rem*bg))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SavePPM writes the image to a file via WritePPM.
func (im *Image) SavePPM(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := im.WritePPM(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ToNRGBA converts the framebuffer to an 8-bit stdlib image over a dark
// background with gamma correction, for PNG export.
func (im *Image) ToNRGBA() *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, im.W, im.H))
	for i, p := range im.pix {
		rem := 1 - p.A
		px := out.Pix[4*i : 4*i+4 : 4*i+4]
		px[0] = to8(p.R + rem*bg)
		px[1] = to8(p.G + rem*bg)
		px[2] = to8(p.B + rem*bg)
		px[3] = 255
	}
	return out
}

// pngEncoder is shared by every WritePNG. BestSpeed compresses a 128²
// frame about four times faster than the default level, for about a
// fifth more bytes, and the pool keeps each encode from allocating its
// own zlib state. Encoder.Encode is safe for concurrent use.
var pngEncoder = png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: &pngBuffers{}}

// pngBuffers is a png.EncoderBufferPool over a sync.Pool.
type pngBuffers struct{ pool sync.Pool }

func (b *pngBuffers) Get() *png.EncoderBuffer {
	buf, _ := b.pool.Get().(*png.EncoderBuffer)
	return buf
}

func (b *pngBuffers) Put(buf *png.EncoderBuffer) { b.pool.Put(buf) }

// WritePNG encodes the image as PNG.
func (im *Image) WritePNG(w io.Writer) error {
	return pngEncoder.Encode(w, im.ToNRGBA())
}

// SavePNG writes the image to a PNG file.
func (im *Image) SavePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := im.WritePNG(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
