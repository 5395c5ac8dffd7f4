package volume

import (
	"bufio"
	"fmt"
	"io"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
)

// Raw volume I/O: the interchange format of the paper's datasets (and
// most scientific-visualization corpora) is a headerless stream of
// little-endian samples in row-major order. The element type is part
// of the filename convention, not the stream, so the caller picks the
// dtype: SaveRawOf/LoadRawOf move any grid.Scalar element width.
// Loads are strict about size: a short stream and a long stream are
// both rejected with the expected and actual byte counts, because a
// silent mismatch usually means wrong extents or wrong dtype.

// rawBytes returns the exact byte size of an nx×ny×nz raw stream of
// the given dtype.
func rawBytes(nx, ny, nz, elemSize int) int64 {
	return int64(nx) * int64(ny) * int64(nz) * int64(elemSize)
}

// SaveRawOf writes g as little-endian samples of g's element type in
// row-major (x fastest) order, whatever g's in-memory layout is. Each
// x-row is gathered into one buffer and written with one Write.
func SaveRawOf[T grid.Scalar](w io.Writer, g *grid.Grid[T]) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	nx, ny, nz := g.Dims()
	row := make([]T, nx)
	raw := make([]byte, nx*grid.DtypeFor[T]().Size())
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := range row {
				row[i] = g.At(i, j, k)
			}
			encodeElems(raw, row)
			if _, err := bw.Write(raw); err != nil {
				return fmt.Errorf("volume: writing raw: %w", err)
			}
		}
	}
	return bw.Flush()
}

// LoadRawOf reads an nx×ny×nz little-endian row-major volume of T
// samples into a grid under the given layout. It reads one x-row per
// io.ReadFull, decodes it in bulk and scatters it through the flat
// offset tables (non-separable layouts — Hilbert, hierarchical Z — Set
// each sample of the row instead). Both truncated and oversized
// streams are rejected, with the error naming the expected and actual
// byte counts; a truncation also names the first incomplete voxel.
func LoadRawOf[T grid.Scalar](r io.Reader, l core.Layout) (*grid.Grid[T], error) {
	br := bufio.NewReaderSize(r, 1<<16)
	g := grid.NewOf[T](l)
	nx, ny, nz := l.Dims()
	dt := grid.DtypeFor[T]()
	es := dt.Size()
	want := rawBytes(nx, ny, nz, es)
	row := make([]T, nx)
	raw := make([]byte, nx*es)
	f, flat := g.Flat()
	var got int64
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			n, err := io.ReadFull(br, raw)
			got += int64(n)
			if err != nil {
				// A cut on a sample boundary reads as the plain EOF a
				// per-sample read of the next voxel would see.
				if err == io.ErrUnexpectedEOF && n%es == 0 {
					err = io.EOF
				}
				return nil, fmt.Errorf("volume: raw %s stream truncated at (%d,%d,%d): got %d bytes, want %d (%dx%dx%d × %d-byte samples): %w",
					dt, n/es, j, k, got, want, nx, ny, nz, es, err)
			}
			decodeElems(row, raw)
			if flat {
				base := f.Y[j] + f.Z[k]
				for i, x := range f.X {
					f.Data[base+x] = row[i]
				}
			} else {
				for i, v := range row {
					g.Set(i, j, k, v)
				}
			}
		}
	}
	extra, err := io.Copy(io.Discard, br)
	if err != nil {
		return nil, fmt.Errorf("volume: reading raw: %w", err)
	}
	if extra > 0 {
		return nil, fmt.Errorf("volume: raw %s stream oversized: got %d bytes, want %d (%dx%dx%d × %d-byte samples; extents or dtype mismatch?)",
			dt, want+extra, want, nx, ny, nz, es)
	}
	return g, nil
}
