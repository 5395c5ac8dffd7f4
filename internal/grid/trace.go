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

// TracedTables is a Traced view that additionally replays the per-axis
// offset-table loads a kernel issues when it resolves every access
// through the tables: the innermost x-table load per element, and the
// hoisted y-/z-table loads once per (j) / (k) change. A walk that keeps
// its index in registers issues none of these — comparing the two
// streams through the cache simulator isolates the index traffic.
// Table entries are 8 bytes (int offsets) and live at tableBase, laid
// out X then Y then Z.
//
// The view is sequential like every traced view: one simulated thread
// per view, accesses replayed in program order.
type TracedTables[T Scalar] struct {
	tr        *Traced[T]
	sink      Sink
	tableBase uint64
	yBase     uint64
	zBase     uint64
	lastJ     int
	lastK     int
}

// NewTracedTables wraps g like NewTraced and places the per-axis offset
// tables at tableBase in the simulated address space.
func NewTracedTables[T Scalar](g *Grid[T], base, tableBase uint64, sink Sink) *TracedTables[T] {
	nx, ny, _ := g.Dims()
	return &TracedTables[T]{
		tr:        NewTraced(g, base, sink),
		sink:      sink,
		tableBase: tableBase,
		yBase:     tableBase + uint64(nx)*8,
		zBase:     tableBase + uint64(nx+ny)*8,
		lastJ:     -1,
		lastK:     -1,
	}
}

// At replays the table loads for (i,j,k), then the element read.
func (t *TracedTables[T]) At(i, j, k int) T {
	t.sink.Access(t.tableBase+uint64(i)*8, false)
	if j != t.lastJ {
		t.sink.Access(t.yBase+uint64(j)*8, false)
		t.lastJ = j
	}
	if k != t.lastK {
		t.sink.Access(t.zBase+uint64(k)*8, false)
		t.lastK = k
	}
	return t.tr.At(i, j, k)
}

// Set replays the destination's table loads, then the element write.
func (t *TracedTables[T]) Set(i, j, k int, v T) {
	t.sink.Access(t.tableBase+uint64(i)*8, false)
	if j != t.lastJ {
		t.sink.Access(t.yBase+uint64(j)*8, false)
		t.lastJ = j
	}
	if k != t.lastK {
		t.sink.Access(t.zBase+uint64(k)*8, false)
		t.lastK = k
	}
	t.tr.Set(i, j, k, v)
}

// Dims returns the underlying grid's extents.
func (t *TracedTables[T]) Dims() (nx, ny, nz int) { return t.tr.Dims() }

// Grid returns the wrapped grid.
func (t *TracedTables[T]) Grid() *Grid[T] { return t.tr.Grid() }
