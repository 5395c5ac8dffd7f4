package grid

// Sink consumes a stream of memory accesses. The cache simulator's
// per-thread front ends implement it; a traced grid view converts every
// logical (i,j,k) access into the byte address the element would occupy
// in a real address space and feeds it onward.
type Sink interface {
	// Access records one element-sized access at byte address addr.
	Access(addr uint64, write bool)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(addr uint64, write bool)

// Access calls f(addr, write).
func (f SinkFunc) Access(addr uint64, write bool) { f(addr, write) }

// Traced is a view of a Grid that reports every element access to a
// Sink before satisfying it. Each simulated thread gets its own Traced
// view (wired to its own private-cache front end) over the shared grid.
//
// The byte address of element (i,j,k) is base + elemSize*Index(i,j,k)
// with elemSize the dtype's width: exactly the address arithmetic the
// hardware would see, so the cache simulator observes the true layout-
// and element-width-dependent access stream — a uint8 volume packs 64
// voxels into a 64-byte line where float32 packs 16, and the simulated
// caches see that difference.
type Traced[T Scalar] struct {
	g        *Grid[T]
	sink     Sink
	base     uint64
	elemSize uint64
}

var (
	_ Reader      = (*Traced[float32])(nil)
	_ Writer      = (*Traced[float32])(nil)
	_ View[uint8] = (*Traced[uint8])(nil)
)

// NewTraced wraps g in a traced view. base offsets this grid in the
// simulated address space; give distinct grids disjoint bases so source
// and destination volumes do not alias in the simulated caches.
func NewTraced[T Scalar](g *Grid[T], base uint64, sink Sink) *Traced[T] {
	return &Traced[T]{g: g, sink: sink, base: base, elemSize: uint64(DtypeFor[T]().Size())}
}

// At reports the read to the sink and returns the sample.
func (t *Traced[T]) At(i, j, k int) T {
	idx := t.g.layout.Index(i, j, k)
	t.sink.Access(t.base+uint64(idx)*t.elemSize, false)
	return t.g.data[idx]
}

// Set reports the write to the sink and stores the sample.
func (t *Traced[T]) Set(i, j, k int, v T) {
	idx := t.g.layout.Index(i, j, k)
	t.sink.Access(t.base+uint64(idx)*t.elemSize, true)
	t.g.data[idx] = v
}

// Dims returns the underlying grid's extents.
func (t *Traced[T]) Dims() (nx, ny, nz int) { return t.g.Dims() }

// Flat returns a flat view of the wrapped grid, or ok == false when its
// layout is not separable. Accesses through the flat view bypass the
// sink: a kernel that replays a traced view flat must report every
// element it reads or writes itself, through Report, in the order it
// touches them.
func (t *Traced[T]) Flat() (Flat[T], bool) { return t.g.Flat() }

// Report sends the access to buffer element idx to the sink, at the
// address At or Set would report for the voxel stored there.
func (t *Traced[T]) Report(idx int, write bool) {
	t.sink.Access(t.base+uint64(idx)*t.elemSize, write)
}

// Grid returns the wrapped grid.
func (t *Traced[T]) Grid() *Grid[T] { return t.g }

// CountingSink tallies accesses without simulating anything; useful in
// tests and for computing trace volumes before a simulation run.
type CountingSink struct {
	Reads, Writes uint64
}

// Access increments the read or write tally.
func (c *CountingSink) Access(_ uint64, write bool) {
	if write {
		c.Writes++
	} else {
		c.Reads++
	}
}

// Total returns Reads+Writes.
func (c *CountingSink) Total() uint64 { return c.Reads + c.Writes }
