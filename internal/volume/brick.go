package volume

// SFC-ordered brick persistence: the on-disk format behind sfcserved's
// tiered volume store (internal/store).
//
// A volume's backing slice is already in curve order — that is the
// whole point of the layouts in internal/core — so persisting it in
// storage order keeps the paper's locality argument intact one level
// down the memory hierarchy: a brick is a contiguous curve range, so
// writing it is a sequential copy of a slice window and a cold read is
// one sequential stream that lands in memory already curve-ordered. No
// index computation happens on either path (contrast SaveRawOf and
// LoadRawOf, which map every sample of a row-major x-row through the
// layout for interchange with external tools).
//
// A persisted volume is a directory of bricks plus the manifest that
// commits them:
//
//	00000.sfcb      brick 0: 18-byte header, then payload
//	00001.sfcb      brick 1, ...
//	manifest.json   metadata + per-brick sha256 (the commit point)
//
// The tiered store (internal/store) writes each generation into a
// directory of its own, g<gen>/, and commits it by the manifest's
// rename to g<gen>/manifest.json, a name that did not exist. Nothing in
// this format is synced to disk: after a power loss the newest manifest
// may read as torn and its bricks may fail their sha256, and both are
// rejected as errors, never decoded into samples.
//
// Brick payloads are little-endian samples in storage order. Every
// brick carries its own header (magic, format version, dtype, index,
// payload length) so a file found loose on disk is self-describing,
// and the manifest records each payload's sha256 so a corrupted or
// truncated brick is rejected with a clear error instead of decoding
// into bad samples.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"

	"sfcmem/internal/grid"
)

// ManifestVersion is the current manifest format generation. Readers
// reject other versions rather than guessing.
const ManifestVersion = 1

// BrickInfo describes one persisted brick: its payload size in bytes
// and the hex sha256 of those payload bytes.
type BrickInfo struct {
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// Manifest is a persisted volume's metadata: everything needed to
// reconstruct the grid (layout name, extents, dtype), the store
// bookkeeping that must survive a restart (generation, filter
// provenance), and the integrity data that makes replicas and cached
// artifacts verifiable (per-brick sha256). Deleted volumes keep a
// tombstone manifest so a later re-create continues the generation
// sequence instead of restarting at 1.
type Manifest struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	Layout  string `json:"layout"`
	Dtype   string `json:"dtype"`
	Nx      int    `json:"nx"`
	Ny      int    `json:"ny"`
	Nz      int    `json:"nz"`
	// Elems is the backing-slice length (Layout.Len()), including any
	// layout padding — the cross-check that the layout geometry this
	// process reconstructs matches the one that wrote the bricks.
	Elems int64 `json:"elems"`
	// BrickElems is the number of samples per brick (the last brick
	// may be shorter). Zero is only valid for tombstones.
	BrickElems int         `json:"brick_elems"`
	Gen        uint64      `json:"gen"`
	FilterKey  string      `json:"filter_key,omitempty"`
	Deleted    bool        `json:"deleted,omitempty"`
	Bricks     []BrickInfo `json:"bricks,omitempty"`
}

// EncodeManifest renders m as JSON.
func EncodeManifest(m *Manifest) ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// DecodeManifest parses and validates a manifest. Validation covers
// structural sanity only (version, extents, dtype, brick geometry,
// hash shape); sample integrity is per-brick at read time.
func DecodeManifest(b []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("volume: manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("volume: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if m.Name == "" {
		return nil, fmt.Errorf("volume: manifest has no name")
	}
	if _, err := grid.ParseDtype(m.Dtype); err != nil {
		return nil, fmt.Errorf("volume: manifest: %w", err)
	}
	if m.Nx < 1 || m.Ny < 1 || m.Nz < 1 {
		return nil, fmt.Errorf("volume: manifest extents %dx%dx%d invalid", m.Nx, m.Ny, m.Nz)
	}
	if m.Elems < int64(m.Nx)*int64(m.Ny)*int64(m.Nz) {
		return nil, fmt.Errorf("volume: manifest elems %d below extents %dx%dx%d", m.Elems, m.Nx, m.Ny, m.Nz)
	}
	if m.Deleted {
		// Tombstone: only the name and generation matter.
		return &m, nil
	}
	if m.BrickElems < 1 {
		return nil, fmt.Errorf("volume: manifest brick_elems %d invalid", m.BrickElems)
	}
	want := int((m.Elems + int64(m.BrickElems) - 1) / int64(m.BrickElems))
	if len(m.Bricks) != want {
		return nil, fmt.Errorf("volume: manifest has %d bricks, want %d (%d elems / %d per brick)",
			len(m.Bricks), want, m.Elems, m.BrickElems)
	}
	dt, _ := grid.ParseDtype(m.Dtype)
	es := int64(dt.Size())
	var total int64
	for i, bi := range m.Bricks {
		if bi.Bytes < 1 {
			return nil, fmt.Errorf("volume: manifest brick %d has %d bytes", i, bi.Bytes)
		}
		if bi.Bytes%es != 0 {
			return nil, fmt.Errorf("volume: manifest brick %d: %d bytes not a multiple of %d-byte %s samples",
				i, bi.Bytes, es, m.Dtype)
		}
		if h, err := hex.DecodeString(bi.SHA256); err != nil || len(h) != sha256.Size {
			return nil, fmt.Errorf("volume: manifest brick %d: malformed sha256 %q", i, bi.SHA256)
		}
		total += bi.Bytes
	}
	if total != m.Elems*es {
		return nil, fmt.Errorf("volume: manifest bricks hold %d bytes, want %d (%d × %d-byte %s samples)",
			total, m.Elems*es, m.Elems, es, m.Dtype)
	}
	return &m, nil
}

// ManifestFile is the manifest's name inside a volume directory.
const ManifestFile = "manifest.json"

// WriteManifestFile commits m at path, which must not exist yet: it
// writes path+".tmp" (also new) and renames it to path. A killed writer
// leaves at most the .tmp file, never a half-written manifest at path,
// so the rename is the commit point of the bricks the manifest names.
// Renaming to a new name, rather than over an older manifest, also
// spares the commit ext4's flush of a file renamed over another; a
// path that exists is an error, reported before anything is written.
func WriteManifestFile(path string, m *Manifest) error {
	b, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	if _, err := os.Lstat(path); err == nil {
		return fmt.Errorf("volume: manifest %s exists; a commit renames to a new name", path)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadManifestFile loads and validates a manifest.
func ReadManifestFile(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Brick file header. 18 bytes, little-endian:
//
//	offset 0  magic "SFCB"
//	offset 4  format version (1)
//	offset 5  dtype tag (grid.Dtype)
//	offset 6  brick index, uint32
//	offset 10 payload length in bytes, uint64
const (
	brickMagic     = "SFCB"
	brickVersion   = 1
	BrickHeaderLen = 18
)

// BrickHeader is the decoded form of a brick file's fixed prefix.
type BrickHeader struct {
	Dtype      grid.Dtype
	Index      uint32
	PayloadLen uint64
}

// EncodeBrickHeader renders h into its 18-byte wire form.
func EncodeBrickHeader(h BrickHeader) [BrickHeaderLen]byte {
	var b [BrickHeaderLen]byte
	copy(b[:4], brickMagic)
	b[4] = brickVersion
	b[5] = byte(h.Dtype)
	binary.LittleEndian.PutUint32(b[6:10], h.Index)
	binary.LittleEndian.PutUint64(b[10:18], h.PayloadLen)
	return b
}

// DecodeBrickHeader parses a brick file's fixed prefix.
func DecodeBrickHeader(b []byte) (BrickHeader, error) {
	if len(b) < BrickHeaderLen {
		return BrickHeader{}, fmt.Errorf("volume: brick header truncated: %d bytes, want %d", len(b), BrickHeaderLen)
	}
	if string(b[:4]) != brickMagic {
		return BrickHeader{}, fmt.Errorf("volume: bad brick magic %q", b[:4])
	}
	if b[4] != brickVersion {
		return BrickHeader{}, fmt.Errorf("volume: brick version %d, want %d", b[4], brickVersion)
	}
	dt := grid.Dtype(b[5])
	if dt.Size() == 0 {
		return BrickHeader{}, fmt.Errorf("volume: brick has unknown dtype tag %d", b[5])
	}
	return BrickHeader{
		Dtype:      dt,
		Index:      binary.LittleEndian.Uint32(b[6:10]),
		PayloadLen: binary.LittleEndian.Uint64(b[10:18]),
	}, nil
}

// BrickFileName returns brick i's file name inside a volume directory.
func BrickFileName(i int) string { return fmt.Sprintf("%05d.sfcb", i) }

// encodeElems serializes src into dst as little-endian bytes. The type
// switch resolves once per call; each wide lane then cuts dst to the
// exact length and runs four samples per step at fixed offsets, so the
// loop body holds no per-sample reslice or bounds check. The lanes are
// plain functions rather than arms of this generic body: an
// instantiation made in another package (store's ReadBricksInto, the
// facade's LoadRawAny) is compiled there, where the math bit casts
// were seen not to inline unless this package instantiated the same
// shape itself, which cost cold loads about a quarter of their speed.
func encodeElems[T grid.Scalar](dst []byte, src []T) {
	switch s := any(src).(type) {
	case []uint8:
		copy(dst, s)
	case []uint16:
		encodeU16(dst, s)
	case []float32:
		encodeF32(dst, s)
	case []float64:
		encodeF64(dst, s)
	}
}

func encodeU16(dst []byte, s []uint16) {
	d := dst[:2*len(s)]
	for len(s) >= 4 && len(d) >= 8 {
		binary.LittleEndian.PutUint16(d[0:2], s[0])
		binary.LittleEndian.PutUint16(d[2:4], s[1])
		binary.LittleEndian.PutUint16(d[4:6], s[2])
		binary.LittleEndian.PutUint16(d[6:8], s[3])
		s, d = s[4:], d[8:]
	}
	for i, v := range s {
		binary.LittleEndian.PutUint16(d[2*i:], v)
	}
}

func encodeF32(dst []byte, s []float32) {
	d := dst[:4*len(s)]
	for len(s) >= 4 && len(d) >= 16 {
		binary.LittleEndian.PutUint32(d[0:4], math.Float32bits(s[0]))
		binary.LittleEndian.PutUint32(d[4:8], math.Float32bits(s[1]))
		binary.LittleEndian.PutUint32(d[8:12], math.Float32bits(s[2]))
		binary.LittleEndian.PutUint32(d[12:16], math.Float32bits(s[3]))
		s, d = s[4:], d[16:]
	}
	for i, v := range s {
		binary.LittleEndian.PutUint32(d[4*i:], math.Float32bits(v))
	}
}

func encodeF64(dst []byte, s []float64) {
	d := dst[:8*len(s)]
	for len(s) >= 4 && len(d) >= 32 {
		binary.LittleEndian.PutUint64(d[0:8], math.Float64bits(s[0]))
		binary.LittleEndian.PutUint64(d[8:16], math.Float64bits(s[1]))
		binary.LittleEndian.PutUint64(d[16:24], math.Float64bits(s[2]))
		binary.LittleEndian.PutUint64(d[24:32], math.Float64bits(s[3]))
		s, d = s[4:], d[32:]
	}
	for i, v := range s {
		binary.LittleEndian.PutUint64(d[8*i:], math.Float64bits(v))
	}
}

// decodeElems deserializes little-endian src bytes into dst, four
// samples per step at fixed offsets like encodeElems, whose note on
// the plain-function lanes applies here too.
func decodeElems[T grid.Scalar](dst []T, src []byte) {
	switch d := any(dst).(type) {
	case []uint8:
		copy(d, src)
	case []uint16:
		decodeU16(d, src)
	case []float32:
		decodeF32(d, src)
	case []float64:
		decodeF64(d, src)
	}
}

func decodeU16(d []uint16, src []byte) {
	s := src[:2*len(d)]
	for len(d) >= 4 && len(s) >= 8 {
		d[0] = binary.LittleEndian.Uint16(s[0:2])
		d[1] = binary.LittleEndian.Uint16(s[2:4])
		d[2] = binary.LittleEndian.Uint16(s[4:6])
		d[3] = binary.LittleEndian.Uint16(s[6:8])
		d, s = d[4:], s[8:]
	}
	for i := range d {
		d[i] = binary.LittleEndian.Uint16(s[2*i:])
	}
}

func decodeF32(d []float32, src []byte) {
	s := src[:4*len(d)]
	for len(d) >= 4 && len(s) >= 16 {
		d[0] = math.Float32frombits(binary.LittleEndian.Uint32(s[0:4]))
		d[1] = math.Float32frombits(binary.LittleEndian.Uint32(s[4:8]))
		d[2] = math.Float32frombits(binary.LittleEndian.Uint32(s[8:12]))
		d[3] = math.Float32frombits(binary.LittleEndian.Uint32(s[12:16]))
		d, s = d[4:], s[16:]
	}
	for i := range d {
		d[i] = math.Float32frombits(binary.LittleEndian.Uint32(s[4*i:]))
	}
}

func decodeF64(d []float64, src []byte) {
	s := src[:8*len(d)]
	for len(d) >= 4 && len(s) >= 32 {
		d[0] = math.Float64frombits(binary.LittleEndian.Uint64(s[0:8]))
		d[1] = math.Float64frombits(binary.LittleEndian.Uint64(s[8:16]))
		d[2] = math.Float64frombits(binary.LittleEndian.Uint64(s[16:24]))
		d[3] = math.Float64frombits(binary.LittleEndian.Uint64(s[24:32]))
		d, s = d[4:], s[32:]
	}
	for i := range d {
		d[i] = math.Float64frombits(binary.LittleEndian.Uint64(s[8*i:]))
	}
}

// brickChunk is the staging buffer size of brick I/O: WriteBricks and
// ReadBricksInto stream every brick through one buffer of this many
// bytes — encode or decode, hash and write or read a chunk at a time —
// so their garbage stays a small constant whatever the brick size. It
// is a multiple of every dtype width, so a chunk never splits a sample.
const brickChunk = 1 << 16

// WriteBricks persists data — a grid's backing slice, already in curve
// order — under dir as brick files of brickElems samples each (the
// last brick takes the remainder). Bricks are written in place, with
// no temp file, and each must be a new file (an existing one is an
// error, never truncated): dir must be a directory that no committed
// manifest names, so nothing reads a brick before the caller commits
// the set by writing the manifest afterwards. Returns the per-brick
// sizes and digests for that manifest.
func WriteBricks[T grid.Scalar](dir string, data []T, brickElems int) ([]BrickInfo, error) {
	if brickElems < 1 {
		return nil, fmt.Errorf("volume: brick size %d elems invalid", brickElems)
	}
	es := grid.DtypeFor[T]().Size()
	buf := make([]byte, brickChunk)
	h := sha256.New()
	n := (len(data) + brickElems - 1) / brickElems
	infos := make([]BrickInfo, 0, n)
	for i := 0; i < n; i++ {
		chunk := data[i*brickElems : min((i+1)*brickElems, len(data))]
		sum, err := writeBrick(filepath.Join(dir, BrickFileName(i)), i, chunk, buf, h)
		if err != nil {
			return nil, err
		}
		infos = append(infos, BrickInfo{Bytes: int64(len(chunk) * es), SHA256: hex.EncodeToString(sum)})
	}
	return infos, nil
}

// writeBrick writes brick i — header, then chunk encoded through buf
// and hashed by h as it streams — to path. It returns the payload's
// sha256.
func writeBrick[T grid.Scalar](path string, i int, chunk []T, buf []byte, h hash.Hash) ([]byte, error) {
	dt := grid.DtypeFor[T]()
	es := dt.Size()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("volume: writing brick %d: %w", i, err)
	}
	hdr := EncodeBrickHeader(BrickHeader{Dtype: dt, Index: uint32(i), PayloadLen: uint64(len(chunk) * es)})
	_, err = f.Write(hdr[:])
	h.Reset()
	step := len(buf) / es
	for lo := 0; lo < len(chunk) && err == nil; lo += step {
		part := chunk[lo:min(lo+step, len(chunk))]
		b := buf[:len(part)*es]
		encodeElems(b, part)
		h.Write(b)
		_, err = f.Write(b)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("volume: writing brick %d: %w", i, err)
	}
	return h.Sum(nil), nil
}

// StatBricks checks that each of m's bricks is a file in dir of the
// size m gives it, so a caller can refuse a manifest that claims more
// samples than its bricks hold before allocating the grid it
// describes. The bricks' contents are checked by ReadBricksInto.
func StatBricks(dir string, m *Manifest) error {
	for i, bi := range m.Bricks {
		path := filepath.Join(dir, BrickFileName(i))
		fi, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("volume: reading brick %d: %w", i, err)
		}
		if fi.Size() != BrickHeaderLen+bi.Bytes {
			return fmt.Errorf("%s: brick file holds %d bytes, manifest %d + %d-byte header", path, fi.Size(), bi.Bytes, BrickHeaderLen)
		}
	}
	return nil
}

// ReadBricksInto loads m's bricks from dir into dst, which must be the
// reconstructed layout's backing slice (len == m.Elems). Every brick's
// header is cross-checked against the manifest and its payload is
// streamed through one reused buffer: hashed and decoded into dst a
// chunk at a time, with bytes past the manifest's length rejected and
// the digest compared once the payload ends. Any mismatch —
// truncation, bit rot, a stale file from another generation — fails
// with the offending file named. dst holds unverified samples on
// error, so callers must discard it then; nil is returned only after
// every brick has verified.
func ReadBricksInto[T grid.Scalar](dir string, m *Manifest, dst []T) error {
	es := grid.DtypeFor[T]().Size()
	if int64(len(dst)) != m.Elems {
		return fmt.Errorf("volume: destination holds %d elems, manifest %d", len(dst), m.Elems)
	}
	buf := make([]byte, brickChunk)
	h := sha256.New()
	off := 0
	for i, bi := range m.Bricks {
		elems := int(bi.Bytes) / es
		if bi.Bytes < 0 || bi.Bytes%int64(es) != 0 || elems > len(dst)-off {
			return fmt.Errorf("volume: manifest brick %d: %d bytes do not fit the %d-elem destination at %d",
				i, bi.Bytes, len(dst), off)
		}
		if err := readBrick(filepath.Join(dir, BrickFileName(i)), i, bi, dst[off:off+elems], buf, h); err != nil {
			return err
		}
		off += elems
	}
	if int64(off) != m.Elems {
		return fmt.Errorf("volume: bricks decoded %d elems, manifest %d", off, m.Elems)
	}
	return nil
}

// readBrick streams brick i at path into dst (exactly the brick's
// samples) through buf, hashing with h, and checks the header, the
// payload length and the digest against bi.
func readBrick[T grid.Scalar](path string, i int, bi BrickInfo, dst []T, buf []byte, h hash.Hash) error {
	dt := grid.DtypeFor[T]()
	es := dt.Size()
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("volume: reading brick %d: %w", i, err)
	}
	defer f.Close()
	var hb [BrickHeaderLen]byte
	n, err := io.ReadFull(f, hb[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return fmt.Errorf("volume: reading brick %d: %w", i, err)
	}
	hdr, err := DecodeBrickHeader(hb[:n])
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case hdr.Dtype != dt:
		return fmt.Errorf("%s: brick dtype %s, manifest %s", path, hdr.Dtype, dt)
	case hdr.Index != uint32(i):
		return fmt.Errorf("%s: brick index %d, want %d", path, hdr.Index, i)
	case hdr.PayloadLen != uint64(bi.Bytes):
		return fmt.Errorf("%s: brick header payload %d bytes, manifest %d", path, hdr.PayloadLen, bi.Bytes)
	}
	h.Reset()
	step := len(buf) / es
	for lo := 0; lo < len(dst); lo += step {
		part := dst[lo:min(lo+step, len(dst))]
		b := buf[:len(part)*es]
		n, err := io.ReadFull(f, b)
		if err != nil {
			return fmt.Errorf("%s: brick payload truncated at %d bytes, manifest %d: %w", path, lo*es+n, bi.Bytes, err)
		}
		h.Write(b)
		decodeElems(part, b)
	}
	switch n, err := io.ReadFull(f, buf[:1]); {
	case n > 0:
		return fmt.Errorf("%s: brick payload runs past the manifest's %d bytes", path, bi.Bytes)
	case err != io.EOF:
		return fmt.Errorf("volume: reading brick %d: %w", i, err)
	}
	var sum [sha256.Size]byte
	if got := hex.EncodeToString(h.Sum(sum[:0])); got != bi.SHA256 {
		return fmt.Errorf("%s: brick sha256 %s does not match manifest %s (corrupted or partially written)", path, got, bi.SHA256)
	}
	return nil
}
