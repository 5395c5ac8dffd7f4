package volume

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
)

func roundTripDtype[T grid.Scalar](t *testing.T, kind core.Kind) {
	t.Helper()
	const nx, ny, nz = 7, 5, 4
	l := core.New(kind, nx, ny, nz)
	src := MRIPhantomOf[T](l, 21, 0.05)
	var buf bytes.Buffer
	if err := SaveRawOf(&buf, src); err != nil {
		t.Fatal(err)
	}
	wantLen := nx * ny * nz * grid.DtypeFor[T]().Size()
	if buf.Len() != wantLen {
		t.Fatalf("%v/%v: raw stream %d bytes, want %d", grid.DtypeFor[T](), kind, buf.Len(), wantLen)
	}
	// Load back under a different layout: raw order is layout-independent.
	back, err := LoadRawOf[T](bytes.NewReader(buf.Bytes()), core.NewArrayOrder(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if src.At(i, j, k) != back.At(i, j, k) {
					t.Fatalf("%v/%v: sample (%d,%d,%d) did not round-trip", grid.DtypeFor[T](), kind, i, j, k)
				}
			}
		}
	}
}

func TestRawRoundTripAllDtypesAndLayouts(t *testing.T) {
	for _, kind := range core.Kinds() {
		roundTripDtype[uint8](t, kind)
		roundTripDtype[uint16](t, kind)
		roundTripDtype[float32](t, kind)
		roundTripDtype[float64](t, kind)
	}
}

func TestLoadRawTruncatedNamesByteCounts(t *testing.T) {
	l := core.NewArrayOrder(4, 4, 4) // wants 64 uint16 samples = 128 bytes
	payload := make([]byte, 50)
	_, err := LoadRawOf[uint16](bytes.NewReader(payload), l)
	if err == nil {
		t.Fatal("truncated stream accepted")
	}
	for _, frag := range []string{"truncated", "got 50 bytes", "want 128", "uint16", "4x4x4"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("truncation error %q missing %q", err, frag)
		}
	}
}

func TestLoadRawOversizedNamesByteCounts(t *testing.T) {
	l := core.NewArrayOrder(2, 2, 2) // wants 8 uint8 samples = 8 bytes
	payload := make([]byte, 13)
	_, err := LoadRawOf[uint8](bytes.NewReader(payload), l)
	if err == nil {
		t.Fatal("oversized stream accepted")
	}
	for _, frag := range []string{"oversized", "got 13 bytes", "want 8", "uint8"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("oversize error %q missing %q", err, frag)
		}
	}
}

func TestLoadRawFloat32ByteCountErrors(t *testing.T) {
	// The float32 wrappers report counts too (the pre-generic messages
	// named coordinates only).
	l := core.NewZOrder(3, 3, 3) // wants 27 float32 = 108 bytes
	_, err := LoadRaw(bytes.NewReader(make([]byte, 100)), l)
	if err == nil || !strings.Contains(err.Error(), "want 108") {
		t.Errorf("float32 truncation error %v should name want 108", err)
	}
	_, err = LoadRaw(bytes.NewReader(make([]byte, 112)), l)
	if err == nil || !strings.Contains(err.Error(), "got 112 bytes") {
		t.Errorf("float32 oversize error %v should name got 112", err)
	}
}

// loadRawReference is the per-voxel decoder LoadRawOf must agree with:
// one sample at a time in row-major order, each stored through the
// layout's Index via Set. It reports ok == false unless data holds
// exactly the volume's bytes.
func loadRawReference[T grid.Scalar](data []byte, l core.Layout) (g *grid.Grid[T], ok bool) {
	nx, ny, nz := l.Dims()
	dt := grid.DtypeFor[T]()
	es := dt.Size()
	if int64(len(data)) != rawBytes(nx, ny, nz, es) {
		return nil, false
	}
	g = grid.NewOf[T](l)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				b := data[:es]
				data = data[es:]
				var v T
				switch dt {
				case grid.U8:
					v = T(b[0])
				case grid.U16:
					v = T(binary.LittleEndian.Uint16(b))
				case grid.F32:
					v = T(math.Float32frombits(binary.LittleEndian.Uint32(b)))
				default:
					v = T(math.Float64frombits(binary.LittleEndian.Uint64(b)))
				}
				g.Set(i, j, k, v)
			}
		}
	}
	return g, true
}

// sameBits reports whether two grids hold bit-identical backing
// slices (NaN payloads included, which == and DeepEqual miss).
func sameBits[T grid.Scalar](a, b *grid.Grid[T]) bool {
	es := grid.DtypeFor[T]().Size()
	ab := make([]byte, len(a.Data())*es)
	bb := make([]byte, len(b.Data())*es)
	encodeElems(ab, a.Data())
	encodeElems(bb, b.Data())
	return bytes.Equal(ab, bb)
}

func checkLoadRawMatchesReference[T grid.Scalar](t *testing.T, kind core.Kind) {
	t.Helper()
	l := core.New(kind, 7, 5, 6)
	data := make([]byte, 7*5*6*grid.DtypeFor[T]().Size())
	rng := NewRNG(uint64(kind) + 1)
	for i := range data {
		data[i] = byte(rng.Uint64()) // random bits: NaNs and denormals included
	}
	got, err := LoadRawOf[T](bytes.NewReader(data), l)
	if err != nil {
		t.Fatalf("%v/%v: %v", grid.DtypeFor[T](), kind, err)
	}
	want, _ := loadRawReference[T](data, l)
	if !sameBits(got, want) {
		t.Fatalf("%v/%v: LoadRawOf differs from the per-voxel reference", grid.DtypeFor[T](), kind)
	}
}

// TestLoadRawMatchesPerVoxelReference: the row-bulk decoder gives
// grids bit-identical to the per-voxel Set reference for every layout
// kind (separable ones take the offset-table scatter, Hilbert and HZ
// the per-row Set) and every dtype.
func TestLoadRawMatchesPerVoxelReference(t *testing.T) {
	for _, kind := range core.Kinds() {
		checkLoadRawMatchesReference[uint8](t, kind)
		checkLoadRawMatchesReference[uint16](t, kind)
		checkLoadRawMatchesReference[float32](t, kind)
		checkLoadRawMatchesReference[float64](t, kind)
	}
}

// TestLoadRawCutPoints pins the exact error text at each kind of cut: a
// truncation names the first incomplete voxel and the bytes read, and
// a cut on a sample boundary wraps EOF where one inside a sample wraps
// unexpected EOF — what a reader of one sample at a time reports.
func TestLoadRawCutPoints(t *testing.T) {
	const trunc = "volume: raw %s stream truncated at %s: got %d bytes, want %d (3x4x2 × %d-byte samples): %s"
	cases := []struct {
		kind core.Kind
		dt   grid.Dtype
		n    int
		want string
	}{
		{core.ZKind, grid.F32, 0, fmt.Sprintf(trunc, "float32", "(0,0,0)", 0, 96, 4, "EOF")},
		{core.ZKind, grid.F32, 6, fmt.Sprintf(trunc, "float32", "(1,0,0)", 6, 96, 4, "unexpected EOF")},
		{core.ZKind, grid.F32, 8, fmt.Sprintf(trunc, "float32", "(2,0,0)", 8, 96, 4, "EOF")},
		{core.ZKind, grid.F32, 12, fmt.Sprintf(trunc, "float32", "(0,1,0)", 12, 96, 4, "EOF")},
		{core.ZKind, grid.F32, 94, fmt.Sprintf(trunc, "float32", "(2,3,1)", 94, 96, 4, "unexpected EOF")},
		{core.ZKind, grid.F32, 95, fmt.Sprintf(trunc, "float32", "(2,3,1)", 95, 96, 4, "unexpected EOF")},
		{core.ZKind, grid.F32, 97, "volume: raw float32 stream oversized: got 97 bytes, want 96 (3x4x2 × 4-byte samples; extents or dtype mismatch?)"},
		{core.HilbertKind, grid.U16, 0, fmt.Sprintf(trunc, "uint16", "(0,0,0)", 0, 48, 2, "EOF")},
		{core.HilbertKind, grid.U16, 3, fmt.Sprintf(trunc, "uint16", "(1,0,0)", 3, 48, 2, "unexpected EOF")},
		{core.HilbertKind, grid.U16, 6, fmt.Sprintf(trunc, "uint16", "(0,1,0)", 6, 48, 2, "EOF")},
		{core.HilbertKind, grid.U16, 47, fmt.Sprintf(trunc, "uint16", "(2,3,1)", 47, 48, 2, "unexpected EOF")},
		{core.HilbertKind, grid.U16, 49, "volume: raw uint16 stream oversized: got 49 bytes, want 48 (3x4x2 × 2-byte samples; extents or dtype mismatch?)"},
	}
	for _, c := range cases {
		l := core.New(c.kind, 3, 4, 2)
		r := bytes.NewReader(make([]byte, c.n))
		var err error
		if c.dt == grid.F32 {
			_, err = LoadRawOf[float32](r, l)
		} else {
			_, err = LoadRawOf[uint16](r, l)
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("%v %s, %d bytes:\n got  %v\n want %s", c.kind, c.dt, c.n, err, c.want)
		}
	}
}

// checkFuzzLoadRaw asserts LoadRawOf's contract on one input: a stream
// of the wrong length is a byte-count error, and the right length gives
// the per-voxel reference grid bit for bit.
func checkFuzzLoadRaw[T grid.Scalar](t *testing.T, data []byte, l core.Layout) {
	got, err := LoadRawOf[T](bytes.NewReader(data), l)
	want, ok := loadRawReference[T](data, l)
	nx, ny, nz := l.Dims()
	wantBytes := rawBytes(nx, ny, nz, grid.DtypeFor[T]().Size())
	switch {
	case !ok && err == nil:
		t.Fatalf("%d-byte stream accepted for %s, want %d bytes", len(data), l.Name(), wantBytes)
	case !ok:
		// Short or long, the whole stream is read before the error.
		frag := fmt.Sprintf("got %d bytes, want %d", len(data), wantBytes)
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not name the byte counts (%s)", err, frag)
		}
	case err != nil:
		t.Fatalf("%d-byte stream rejected for %s: %v", len(data), l.Name(), err)
	case !sameBits(got, want):
		t.Fatalf("%s: LoadRawOf differs from the per-voxel reference", l.Name())
	}
}

// FuzzLoadRaw drives the raw decoder with arbitrary bytes over 2..9
// extents, every dtype and every layout kind: each input either fails
// with an error naming the byte counts or decodes to exactly the
// per-voxel reference — the decoder-level half of "a raw upload whose
// length, dtype and layout disagree".
func FuzzLoadRaw(f *testing.F) {
	f.Add(make([]byte, 8), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(make([]byte, 3*4*2*4), uint8(1), uint8(2), uint8(0), uint8(2), uint8(1))
	f.Add(make([]byte, 95), uint8(1), uint8(2), uint8(0), uint8(2), uint8(3))
	f.Add([]byte("\xff\xff\xc0\x7f\x01\x00\x80\xff"), uint8(0), uint8(0), uint8(0), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, nx, ny, nz, dt, kind uint8) {
		kinds := core.Kinds()
		l := core.New(kinds[int(kind)%len(kinds)], 2+int(nx)%8, 2+int(ny)%8, 2+int(nz)%8)
		switch grid.Dtypes()[int(dt)%len(grid.Dtypes())] {
		case grid.U8:
			checkFuzzLoadRaw[uint8](t, data, l)
		case grid.U16:
			checkFuzzLoadRaw[uint16](t, data, l)
		case grid.F32:
			checkFuzzLoadRaw[float32](t, data, l)
		default:
			checkFuzzLoadRaw[float64](t, data, l)
		}
	})
}

// BenchmarkLoadRaw decodes a 128³ float32 raw stream (8 MiB) into a Z
// order grid — the ingest half of an upload.
func BenchmarkLoadRaw(b *testing.B) {
	const n = 128
	l := core.NewZOrder(n, n, n)
	data := make([]byte, n*n*n*4)
	for i := 0; i < n*n*n; i++ {
		binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(float32(i%251)*0.5))
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadRawOf[float32](bytes.NewReader(data), l); err != nil {
			b.Fatal(err)
		}
	}
}

// checkElemCodec compares encodeElems and decodeElems with one
// binary.LittleEndian call per sample, at every length from empty to
// past two unrolled steps, so both the four-sample body and the tail
// are covered.
func checkElemCodec[T grid.Scalar](t *testing.T) {
	t.Helper()
	es := grid.DtypeFor[T]().Size()
	rng := NewRNG(uint64(es))
	for n := 0; n <= 11; n++ {
		raw := make([]byte, n*es)
		for i := range raw {
			raw[i] = byte(rng.Uint64())
		}
		got := make([]T, n)
		decodeElems(got, raw)
		back := make([]byte, n*es)
		encodeElems(back, got)
		if !bytes.Equal(back, raw) {
			t.Fatalf("%v n=%d: encode(decode(b)) != b", grid.DtypeFor[T](), n)
		}
		for i := 0; i < n; i++ {
			b := raw[i*es:]
			var want uint64
			switch es {
			case 1:
				want = uint64(b[0])
			case 2:
				want = uint64(binary.LittleEndian.Uint16(b))
			case 4:
				want = uint64(binary.LittleEndian.Uint32(b))
			default:
				want = binary.LittleEndian.Uint64(b)
			}
			if have := sampleBits(got[i]); have != want {
				t.Fatalf("%v n=%d: sample %d decodes to bits %#x, want %#x", grid.DtypeFor[T](), n, i, have, want)
			}
		}
	}
}

// sampleBits returns v's bit pattern.
func sampleBits[T grid.Scalar](v T) uint64 {
	switch x := any(v).(type) {
	case uint8:
		return uint64(x)
	case uint16:
		return uint64(x)
	case float32:
		return uint64(math.Float32bits(x))
	default:
		return math.Float64bits(any(v).(float64))
	}
}

func TestElemCodecMatchesPerSample(t *testing.T) {
	checkElemCodec[uint8](t)
	checkElemCodec[uint16](t)
	checkElemCodec[float32](t)
	checkElemCodec[float64](t)
}
