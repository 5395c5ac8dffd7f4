package volume

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
)

// writeTestVolume persists a deterministic grid of T under dir and
// returns the grid and its manifest.
func writeTestVolume[T grid.Scalar](t *testing.T, dir string, l core.Layout, brickElems int) (*grid.Grid[T], *Manifest) {
	t.Helper()
	g := grid.FromFuncOf[T](l, func(i, j, k int) T {
		return T((i*7 + j*13 + k*29) % 97)
	})
	infos, err := WriteBricks(dir, g.Data(), brickElems)
	if err != nil {
		t.Fatalf("WriteBricks: %v", err)
	}
	nx, ny, nz := l.Dims()
	m := &Manifest{
		Version: ManifestVersion, Name: "t", Dataset: "test", Layout: l.Name(),
		Dtype: grid.DtypeFor[T]().String(), Nx: nx, Ny: ny, Nz: nz,
		Elems: int64(l.Len()), BrickElems: brickElems, Gen: 1, Bricks: infos,
	}
	if err := WriteManifestFile(filepath.Join(dir, ManifestFile), m); err != nil {
		t.Fatalf("WriteManifestFile: %v", err)
	}
	return g, m
}

func roundTrip[T grid.Scalar](t *testing.T, l core.Layout, brickElems int) {
	t.Helper()
	dir := t.TempDir()
	g, _ := writeTestVolume[T](t, dir, l, brickElems)
	m, err := ReadManifestFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatalf("ReadManifestFile: %v", err)
	}
	got := grid.NewOf[T](l)
	if err := ReadBricksInto(dir, m, got.Data()); err != nil {
		t.Fatalf("ReadBricksInto: %v", err)
	}
	if !reflect.DeepEqual(g.Data(), got.Data()) {
		t.Fatal("round-tripped backing slice differs")
	}
}

// TestBrickRoundTripDtypes persists and reloads every dtype over a
// padded space-filling layout (non-power-of-two ZOrder pads, so Elems
// > nx*ny*nz exercises the padding path) with a brick size that does
// not divide the slice length (short final brick).
func TestBrickRoundTripDtypes(t *testing.T) {
	l := core.New(core.ZKind, 12, 10, 6) // pads to 16×16×8
	if l.Len() <= 12*10*6 {
		t.Fatalf("test layout should pad: len %d", l.Len())
	}
	const brickElems = 300 // does not divide l.Len()
	t.Run("uint8", func(t *testing.T) { roundTrip[uint8](t, l, brickElems) })
	t.Run("uint16", func(t *testing.T) { roundTrip[uint16](t, l, brickElems) })
	t.Run("float32", func(t *testing.T) { roundTrip[float32](t, l, brickElems) })
	t.Run("float64", func(t *testing.T) { roundTrip[float64](t, l, brickElems) })
}

// TestBricksAreStorageOrder pins the format claim the tiered store is
// built on: brick payloads are the backing slice in storage order, so
// brick i starts exactly at slice offset i*brickElems.
func TestBricksAreStorageOrder(t *testing.T) {
	l := core.New(core.ZKind, 8, 8, 8)
	dir := t.TempDir()
	g, m := writeTestVolume[uint8](t, dir, l, 128)
	for i := range m.Bricks {
		b, err := os.ReadFile(filepath.Join(dir, BrickFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		payload := b[BrickHeaderLen:]
		want := g.Data()[i*128 : min((i+1)*128, len(g.Data()))]
		if !reflect.DeepEqual(payload, want) {
			t.Fatalf("brick %d payload is not the slice window [%d:%d]", i, i*128, i*128+len(want))
		}
	}
}

func TestCorruptedBrickRejected(t *testing.T) {
	l := core.New(core.ZKind, 8, 8, 8)
	dir := t.TempDir()
	_, m := writeTestVolume[float32](t, dir, l, 100)

	path := filepath.Join(dir, BrickFileName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[BrickHeaderLen+5] ^= 0x40 // flip one payload bit
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, m.Elems)
	err = ReadBricksInto(dir, m, dst)
	if err == nil {
		t.Fatal("corrupted brick decoded without error")
	}
	if !strings.Contains(err.Error(), "sha256") || !strings.Contains(err.Error(), BrickFileName(1)) {
		t.Fatalf("corruption error should name the digest and file: %v", err)
	}
}

func TestTruncatedBrickRejected(t *testing.T) {
	l := core.New(core.ZKind, 8, 8, 8)
	dir := t.TempDir()
	_, m := writeTestVolume[uint16](t, dir, l, 100)
	if err := StatBricks(dir, m); err != nil {
		t.Fatalf("StatBricks on intact bricks: %v", err)
	}
	path := filepath.Join(dir, BrickFileName(0))
	b, _ := os.ReadFile(path)
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint16, m.Elems)
	if err := ReadBricksInto(dir, m, dst); err == nil {
		t.Fatal("truncated brick decoded without error")
	}
	if err := StatBricks(dir, m); err == nil || !strings.Contains(err.Error(), BrickFileName(0)) {
		t.Fatalf("StatBricks should name the truncated brick: %v", err)
	}
}

// dirDigest is the sha256 over every file in dir, name then bytes, in
// name order.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(n))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBrickFilesPinned pins the on-disk bytes — brick headers,
// payloads and the manifest with its digests — for fixed volumes, so a
// change to the write path cannot silently change the format that
// existing data directories hold. The float32 case has bricks several
// staging chunks long and a short final brick; the uint16 case has
// bricks far shorter than one chunk.
func TestBrickFilesPinned(t *testing.T) {
	cases := []struct {
		name  string
		write func(dir string)
		want  string
	}{
		{"float32", func(dir string) { writeTestVolume[float32](t, dir, core.New(core.ZKind, 40, 33, 20), 40000) },
			"d2e56c2e409de5ba94f7f1a63f9fa8f3b9d7cc1a69e603ce0378657800e01b33"},
		{"uint16", func(dir string) { writeTestVolume[uint16](t, dir, core.New(core.ZKind, 12, 10, 6), 300) },
			"ca7f4940e754a7ac42040d16abab0182dce95b381f34f8f29dc2305f90d009c6"},
		{"float64", func(dir string) { writeTestVolume[float64](t, dir, core.New(core.ZKind, 12, 10, 6), 300) },
			"52b7fd4b463a4b662c1389dee29cb69101e1ec25c04c872e19952a877860235a"},
	}
	for _, c := range cases {
		dir := t.TempDir()
		c.write(dir)
		if got := dirDigest(t, dir); got != c.want {
			t.Errorf("%s: volume directory sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

// appendToBrick appends extra bytes to brick i's file.
func appendToBrick(t *testing.T, dir string, i int, extra []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, BrickFileName(i)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(extra); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTrailingBrickBytesRejected: bytes past the manifest's payload
// length fail the load even though the payload they follow verifies.
func TestTrailingBrickBytesRejected(t *testing.T) {
	l := core.New(core.ZKind, 8, 8, 8)
	dir := t.TempDir()
	_, m := writeTestVolume[float32](t, dir, l, 100)
	appendToBrick(t, dir, 2, []byte{0})
	err := ReadBricksInto(dir, m, make([]float32, m.Elems))
	if err == nil {
		t.Fatal("brick with a trailing byte decoded without error")
	}
	if !strings.Contains(err.Error(), BrickFileName(2)) || !strings.Contains(err.Error(), "runs past") {
		t.Fatalf("trailing-byte error should name the file and the overrun: %v", err)
	}
	if err := StatBricks(dir, m); err == nil || !strings.Contains(err.Error(), BrickFileName(2)) {
		t.Fatalf("StatBricks should name the overlong brick: %v", err)
	}
}

// TestBrickHeaderPayloadLenLies: a header whose payload length
// disagrees with the manifest fails before any payload is read — in
// both directions, and also when the file really holds the header's
// (wrong) length.
func TestBrickHeaderPayloadLenLies(t *testing.T) {
	l := core.New(core.ZKind, 8, 8, 8)
	for _, delta := range []int64{-4, 4} {
		dir := t.TempDir()
		_, m := writeTestVolume[float32](t, dir, l, 100)
		path := filepath.Join(dir, BrickFileName(1))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := DecodeBrickHeader(b)
		if err != nil {
			t.Fatal(err)
		}
		hdr.PayloadLen = uint64(m.Bricks[1].Bytes + delta)
		enc := EncodeBrickHeader(hdr)
		copy(b, enc[:])
		if delta > 0 {
			b = append(b, make([]byte, delta)...)
		} else {
			b = b[:int64(len(b))+delta]
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		err = ReadBricksInto(dir, m, make([]float32, m.Elems))
		if err == nil {
			t.Fatalf("delta %d: lying header payload length decoded without error", delta)
		}
		if !strings.Contains(err.Error(), "header payload") || !strings.Contains(err.Error(), BrickFileName(1)) {
			t.Fatalf("delta %d: error should name the header's payload length and the file: %v", delta, err)
		}
	}
}

// TestReadBricksIntoAllocations: a cold load streams through one reused
// buffer, so reading an 8 MiB volume in 4 MiB bricks allocates well
// under one brick beyond the destination slice.
func TestReadBricksIntoAllocations(t *testing.T) {
	l := core.New(core.ZKind, 128, 128, 128)
	dir := t.TempDir()
	_, m := writeTestVolume[float32](t, dir, l, 1<<20)
	dst := make([]float32, m.Elems)
	if err := ReadBricksInto(dir, m, dst); err != nil { // warm the page cache
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := ReadBricksInto(dir, m, dst); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("ReadBricksInto of %d MiB allocated %d bytes beyond dst, want < 256 KiB", m.Elems*4>>20, got)
	}
}

func TestManifestRejectsLies(t *testing.T) {
	l := core.New(core.ZKind, 8, 8, 8)
	dir := t.TempDir()
	_, m := writeTestVolume[uint8](t, dir, l, 128)
	cases := map[string]func(m *Manifest){
		"version":     func(m *Manifest) { m.Version = 99 },
		"no name":     func(m *Manifest) { m.Name = "" },
		"dtype":       func(m *Manifest) { m.Dtype = "complex128" },
		"extents":     func(m *Manifest) { m.Nx = 0 },
		"elems":       func(m *Manifest) { m.Elems = 3 },
		"brick elems": func(m *Manifest) { m.BrickElems = 0 },
		"brick count": func(m *Manifest) { m.Bricks = m.Bricks[:1] },
		"brick bytes": func(m *Manifest) { m.Bricks[0].Bytes = 0 },
		"hash shape":  func(m *Manifest) { m.Bricks[0].SHA256 = "zz" },
	}
	for name, mutate := range cases {
		bad := *m
		bad.Bricks = append([]BrickInfo(nil), m.Bricks...)
		mutate(&bad)
		b, err := EncodeManifest(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeManifest(b); err == nil {
			t.Errorf("%s: bad manifest decoded without error", name)
		}
	}
}

func TestTombstoneManifest(t *testing.T) {
	m := &Manifest{Version: ManifestVersion, Name: "gone", Dtype: "float32",
		Nx: 2, Ny: 2, Nz: 2, Elems: 8, Gen: 7, Deleted: true}
	b, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(b)
	if err != nil {
		t.Fatalf("tombstone manifest rejected: %v", err)
	}
	if !got.Deleted || got.Gen != 7 {
		t.Fatalf("tombstone round trip: %+v", got)
	}
}

// FuzzManifestRoundTrip feeds arbitrary bytes through the manifest
// decoder; anything it accepts must re-encode and re-decode to the
// same value (the persistence format is its own fixed point).
func FuzzManifestRoundTrip(f *testing.F) {
	l := core.New(core.ZKind, 4, 4, 4)
	dir := f.TempDir()
	g := grid.NewOf[uint8](l)
	infos, err := WriteBricks(dir, g.Data(), 16)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := EncodeManifest(&Manifest{
		Version: ManifestVersion, Name: "seed", Dataset: "test", Layout: l.Name(),
		Dtype: "uint8", Nx: 4, Ny: 4, Nz: 4, Elems: int64(l.Len()),
		BrickElems: 16, Gen: 3, FilterKey: "fk", Bricks: infos,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1,"name":"x","dtype":"float32","nx":2,"ny":2,"nz":2,"elems":8,"gen":1,"deleted":true}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		enc, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		m2, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("manifest round trip drifted:\n%+v\n%+v", m, m2)
		}
	})
}

// FuzzBrickHeaderRoundTrip checks both directions of the brick header
// codec: every structured header survives encode→decode, and any raw
// prefix the decoder accepts re-encodes to the same bytes.
func FuzzBrickHeaderRoundTrip(f *testing.F) {
	h := EncodeBrickHeader(BrickHeader{Dtype: grid.F32, Index: 12, PayloadLen: 4096})
	f.Add(h[:], uint8(1), uint32(0), uint64(64))
	f.Fuzz(func(t *testing.T, raw []byte, dt uint8, index uint32, plen uint64) {
		if hdr, err := DecodeBrickHeader(raw); err == nil {
			enc := EncodeBrickHeader(hdr)
			if string(enc[:]) != string(raw[:BrickHeaderLen]) {
				t.Fatalf("accepted header re-encodes differently:\n% x\n% x", raw[:BrickHeaderLen], enc)
			}
		}
		want := BrickHeader{Dtype: grid.Dtype(dt), Index: index, PayloadLen: plen}
		if want.Dtype.Size() == 0 {
			return // not a representable dtype; encoder contract needs one
		}
		enc := EncodeBrickHeader(want)
		got, err := DecodeBrickHeader(enc[:])
		if err != nil {
			t.Fatalf("encoded header rejected: %v", err)
		}
		if got != want {
			t.Fatalf("header round trip: got %+v, want %+v", got, want)
		}
	})
}
