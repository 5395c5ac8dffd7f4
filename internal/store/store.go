// Package store is sfcserved's tiered volume storage: a pluggable
// VolumeStore interface over two stacked tiers — a byte-budgeted RAM
// tier (an LRU over resident volumes, the eviction idiom of
// internal/rcache) above a disk tier that persists each volume as
// SFC-ordered brick files plus a manifest (internal/volume's brick
// codec).
//
// Because grids are stored in curve order in memory, the disk tier
// inherits the paper's locality argument for free: bricks are
// contiguous curve ranges of the backing slice, so persisting a volume
// is a sequential copy and a cold load is sequential I/O that arrives
// already laid out for the kernels. Datasets can therefore outgrow
// RAM: a volume evicted from the RAM tier is transparently
// demand-loaded from its bricks on next access, with single-flight
// coalescing so a request stampede loads it once.
//
// Semantics preserved from the original in-memory map:
//
//   - Grids are immutable once stored; Put replaces whole volumes.
//   - Put assigns the volume's generation: 1 on first store, strictly
//     increasing on every replacement of the name. Generations also
//     survive Delete (in-process tombstones) and — when a data dir is
//     configured — restarts (persisted manifests, including tombstone
//     manifests for deleted names), so a response-cache digest minted
//     for old contents can never validate against new ones.
//   - With no data dir, NewMemory reproduces the old behavior
//     byte-for-byte: everything resident, nothing evicted, nothing
//     survives the process.
package store

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sfcmem"
	"sfcmem/internal/metrics"
	"sfcmem/internal/volume"
)

// ErrNotFound reports a name the store has never held or has deleted.
var ErrNotFound = errors.New("store: volume not found")

// Volume is one named, immutable volume. Gen is assigned by Put and
// immutable afterwards; callers must not mutate any field (the Grid
// least of all — concurrent renders share it without locks).
type Volume struct {
	Name    string
	Dataset string // "plume", "phantom", "upload", or "<src>+<kernel>"
	Layout  string // layout name as given in the volume spec
	Grid    *sfcmem.AnyGrid
	// Gen is the volume's generation; response-cache digests embed it,
	// so replacing a volume makes every cached result for the old
	// contents unreachable without an explicit purge.
	Gen uint64
	// FilterKey, when non-empty, is the response-cache digest of the
	// /filter run that produced this volume; see server.dstHoldsResult.
	FilterKey string
}

// Info is a volume's metadata — the /volumes listing entry, also
// available for non-resident volumes without touching their bricks.
type Info struct {
	Name     string `json:"name"`
	Dataset  string `json:"dataset"`
	Layout   string `json:"layout"`
	Dtype    string `json:"dtype"`
	Nx       int    `json:"nx"`
	Ny       int    `json:"ny"`
	Nz       int    `json:"nz"`
	Bytes    int64  `json:"bytes"`
	Gen      uint64 `json:"gen"`
	Resident bool   `json:"resident"`
	// FilterKey travels with the metadata but is not part of the
	// public listing (it embeds a cache digest).
	FilterKey string `json:"-"`
}

// VolumeStore is the pluggable storage interface the serving layer
// programs against. Implementations must be safe for concurrent use.
type VolumeStore interface {
	// Get returns the named volume, demand-loading it from the disk
	// tier if it is not resident. ErrNotFound means the name is
	// unknown (or deleted); any other error is a failed load (I/O,
	// integrity) and the caller must not serve data for the name.
	Get(name string) (*Volume, error)
	// Put stores v, replacing any volume of the same name, assigns
	// v.Gen, and — when a disk tier is configured — persists it before
	// returning. On error the store keeps its previous contents, in
	// RAM and on disk.
	Put(v *Volume) error
	// Delete removes the volume from every tier. The name's generation
	// floor is retained so a later re-create gets a strictly higher
	// generation. Returns ErrNotFound for unknown names.
	Delete(name string) error
	// Stat returns a volume's metadata without loading its samples.
	Stat(name string) (Info, bool)
	// List returns every live volume's metadata, sorted by name.
	List() []Info
	// Derived returns the value derived from v under key, building it
	// at most once per resident generation: the first caller runs
	// build, concurrent callers for the key wait and share its result,
	// later callers reuse it (built reports which). The value's bytes
	// count against the RAM tier's budget — over budget, derived values
	// are dropped before any volume is evicted — and it is dropped with
	// v when a Put replaces the name, on Delete, and when v is evicted.
	// For a v that is no longer resident the value is built and
	// returned but not kept; neither is a failed build.
	Derived(v *Volume, key string, build func() (val any, bytes int64, err error)) (val any, built bool, err error)
}

// DefaultBrickBytes is the default brick payload size. 4 MiB keeps a
// 256³ float32 volume at 16 bricks — large enough that cold loads are
// a handful of sequential reads, small enough that integrity failures
// localize.
const DefaultBrickBytes = 4 << 20

// Options configures Open.
type Options struct {
	// RAMBytes is the RAM tier's byte budget. <= 0 means unbounded
	// (every volume stays resident; the disk tier is durability only).
	RAMBytes int64
	// BrickBytes is the brick payload size for newly persisted
	// volumes; 0 uses DefaultBrickBytes.
	BrickBytes int
	// Metrics, when non-nil, receives the store.* counters and gauges.
	Metrics *metrics.Registry
}

// entry is one known name. It outlives Delete (deleted entries carry
// the generation floor) and residency (evicted entries keep their
// Info so Stat/List never touch disk).
type entry struct {
	name    string
	dirname string // subdirectory under the data dir
	info    Info
	deleted bool
	// lastGen is the highest generation ever assigned to the name —
	// the monotonic counter Put continues after replaces and deletes.
	lastGen uint64
	// vol is the resident volume; nil when evicted or deleted. elem is
	// its LRU slot (front = most recently used) while resident.
	vol  *Volume
	elem *list.Element
	// derived holds the values derived from vol (see Derived), whose
	// bytes — derivedBytes in all — the RAM tier charges to vol.
	derived      map[string]*derivation
	derivedBytes int64
}

// derivation is one value derived from a resident volume; val, bytes
// and err are written before done closes.
type derivation struct {
	done  chan struct{}
	val   any
	bytes int64
	err   error
}

// flight is one in-progress demand load; vol and err are written
// before done closes.
type flight struct {
	done chan struct{}
	vol  *Volume
	err  error
}

// Store is the tiered implementation of VolumeStore. Construct with
// NewMemory (RAM only) or Open (RAM over brick files).
type Store struct {
	dir        string // "" = no disk tier
	budget     int64  // RAM bytes; <= 0 = unbounded
	brickBytes int

	mu       sync.Mutex
	ents     map[string]*entry
	lru      *list.List
	resident int64
	flights  map[string]*flight

	// iomu serializes disk I/O per volume directory: racing Puts (or a
	// Put racing a Delete) commit their manifests one at a time, and a
	// demand load reads a generation's bricks before a Put or Delete
	// can remove them.
	iomu sync.Map // name -> *sync.Mutex

	// unreadable holds each volume directory in which Open found a
	// manifest but no committed generation, until a Put of its name
	// takes the directory over.
	unreadable map[string]bool

	// testLoadDelay, when set (tests only), runs after a Get registers
	// itself as the demand-load leader and before it touches disk —
	// the hook that makes single-flight coalescing deterministic to
	// test.
	testLoadDelay func()

	hits        *metrics.Counter
	misses      *metrics.Counter
	loads       *metrics.Counter
	loadBytes   *metrics.Counter
	writes      *metrics.Counter
	writeBytes  *metrics.Counter
	evictions   *metrics.Counter
	loadLatency *metrics.Histogram
}

var _ VolumeStore = (*Store)(nil)

// NewMemory returns a RAM-only store: no disk tier, no eviction —
// the original sfcserved in-memory map behind the interface. reg may
// be nil.
func NewMemory(reg *metrics.Registry) *Store {
	s := newStore("", Options{Metrics: reg})
	return s
}

// Open returns a tiered store persisting volumes under dir, loading
// the manifest index of every volume a previous process left there.
// Volumes are demand-loaded on first access, not at open: a restart
// is cheap no matter how much data the directory holds. Open also
// brings each volume directory to its committed generation (see
// openVolumeDir): it migrates the layouts that kept the manifest at the
// directory's top and sweeps what no commit names. A directory holding
// a manifest but no committed generation is skipped and reported (see
// Unreadable); every other volume still opens.
func Open(dir string, o Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: Open needs a data dir (use NewMemory for RAM only)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := newStore(dir, o)
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range des {
		if !de.IsDir() {
			continue
		}
		m, floor, unreadable, err := openVolumeDir(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: opening %s: %w", de.Name(), err)
		}
		if m == nil {
			// A torn or zeroed manifest costs its own volume, not the
			// data dir: the directory stays as it is, unswept, until a
			// Put of its name takes it over. A directory with no
			// manifest at all is not a volume's.
			if unreadable {
				s.unreadable[de.Name()] = true
			}
			continue
		}
		if prev, ok := s.ents[m.Name]; ok && prev.info.Gen >= m.Gen {
			continue // duplicate dirs for one name: highest generation wins
		}
		dt, _ := sfcmem.ParseDtype(m.Dtype)
		s.ents[m.Name] = &entry{
			name:    m.Name,
			dirname: de.Name(),
			deleted: m.Deleted,
			lastGen: floor,
			info: Info{
				Name: m.Name, Dataset: m.Dataset, Layout: m.Layout, Dtype: m.Dtype,
				Nx: m.Nx, Ny: m.Ny, Nz: m.Nz,
				Bytes: m.Elems * int64(dt.Size()), Gen: m.Gen, FilterKey: m.FilterKey,
			},
		}
	}
	return s, nil
}

func newStore(dir string, o Options) *Store {
	bb := o.BrickBytes
	if bb <= 0 {
		bb = DefaultBrickBytes
	}
	s := &Store{
		dir:        dir,
		budget:     o.RAMBytes,
		brickBytes: bb,
		ents:       make(map[string]*entry),
		lru:        list.New(),
		flights:    make(map[string]*flight),
		unreadable: make(map[string]bool),
	}
	reg := o.Metrics
	if reg == nil {
		reg = metrics.NewRegistry() // unpublished sink
	}
	s.hits = reg.Counter("store.hits", 1)
	s.misses = reg.Counter("store.misses", 1)
	s.loads = reg.Counter("store.loads", 1)
	s.loadBytes = reg.Counter("store.load_bytes", 1)
	s.writes = reg.Counter("store.writes", 1)
	s.writeBytes = reg.Counter("store.write_bytes", 1)
	s.evictions = reg.Counter("store.evictions", 1)
	s.loadLatency = reg.Histogram("store.load_latency")
	reg.Register("store.resident_bytes", metrics.GaugeFunc(func() any {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.resident
	}))
	reg.Register("store.resident_volumes", metrics.GaugeFunc(func() any {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.lru.Len()
	}))
	reg.Register("store.volumes", metrics.GaugeFunc(func() any {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, e := range s.ents {
			if !e.deleted {
				n++
			}
		}
		return n
	}))
	reg.Register("store.unreadable_dirs", metrics.GaugeFunc(func() any {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.unreadable)
	}))
	reg.Register("store.ram_budget_bytes", metrics.GaugeFunc(func() any { return s.budget }))
	return s
}

// dirFor derives a filesystem-safe directory name for a client-chosen
// volume name: a readable sanitized prefix plus a hash suffix so
// distinct names can never collide (or escape the data dir).
func dirFor(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= 40 {
			break
		}
	}
	safe := strings.TrimLeft(b.String(), ".") // no dot-prefixed dirs
	if safe == "" {
		safe = "v"
	}
	h := sha256.Sum256([]byte(name))
	return fmt.Sprintf("%s-%x", safe, h[:6])
}

// A volume directory holds one record directory per commit, each with
// its manifest.json: g<gen> holds generation gen's bricks beside its
// manifest, and g<gen>.deleted the tombstone a Delete of generation gen
// commits. Both names are new when their record is written — a Put
// takes a generation above every record directory on disk, and a
// Delete follows the Put whose generation it deletes — so a manifest's
// rename into place never replaces a file (on ext4, a rename over an
// existing file waits for the renamed file's data to reach the disk).

// genDir names the record directory of generation gen.
func genDir(gen uint64) string { return fmt.Sprintf("g%d", gen) }

// deletedSuffix marks a tombstone's record directory.
const deletedSuffix = ".deleted"

// recordDir names the record directory that commits m.
func recordDir(m *volume.Manifest) string {
	if m.Deleted {
		return genDir(m.Gen) + deletedSuffix
	}
	return genDir(m.Gen)
}

// parseRecordDir parses a record directory's name back to its
// generation and kind.
func parseRecordDir(name string) (gen uint64, deleted, ok bool) {
	base, deleted := strings.CutSuffix(name, deletedSuffix)
	gen, err := strconv.ParseUint(strings.TrimPrefix(base, "g"), 10, 64)
	return gen, deleted, err == nil && base == genDir(gen)
}

// maxGenDir returns the highest generation whose record directory dir
// holds, or 0 when it holds none (or cannot be listed): the generation
// floor, above which the next Put of the directory's name commits.
func maxGenDir(dir string) uint64 {
	des, _ := os.ReadDir(dir)
	return topGen(des)
}

// topGen returns the highest generation among the record directories
// in des, or 0 when there are none.
func topGen(des []os.DirEntry) uint64 {
	var top uint64
	for _, de := range des {
		if gen, _, ok := parseRecordDir(de.Name()); ok && de.IsDir() {
			top = max(top, gen)
		}
	}
	return top
}

// openVolumeDir brings the volume directory dir to its committed
// generation and returns that generation's manifest m and the
// directory's generation floor. The committed generation is the
// newest record directory whose manifest decodes and names it; a
// manifest that does not decode (only a power loss leaves one, since a
// killed writer leaves at most a .tmp) counts as uncommitted, and the
// next older record stands. m is nil when no record commits, and
// unreadable then reports whether some manifest was there to fail: the
// directory is left as it is.
func openVolumeDir(dir string) (m *volume.Manifest, floor uint64, unreadable bool, err error) {
	if err := migrate(dir); err != nil {
		return nil, 0, false, err
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, false, err
	}
	type record struct {
		name    string
		gen     uint64
		deleted bool
	}
	var recs []record
	for _, de := range des {
		if gen, deleted, ok := parseRecordDir(de.Name()); ok && de.IsDir() {
			recs = append(recs, record{de.Name(), gen, deleted})
		}
	}
	// Newest first; within a generation its tombstone first, since a
	// Delete commits after the Put whose generation it deletes.
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].gen != recs[j].gen {
			return recs[i].gen > recs[j].gen
		}
		return recs[i].deleted && !recs[j].deleted
	})
	// A top-level manifest that migrate left in place did not decode.
	_, err = os.Lstat(filepath.Join(dir, volume.ManifestFile))
	unreadable = err == nil
	for _, r := range recs {
		m, err := volume.ReadManifestFile(filepath.Join(dir, r.name, volume.ManifestFile))
		if err == nil && m.Gen == r.gen && m.Deleted == r.deleted {
			return m, topGen(des), false, sweep(dir, r.name)
		}
		unreadable = unreadable || !os.IsNotExist(err)
	}
	return nil, topGen(des), unreadable, nil
}

// migrate moves a top-level manifest, the commit point of the layouts
// before record directories, into its record directory: first the
// bricks that the flat layout kept beside it, then the manifest, each
// by a rename to a name that does not exist yet. The manifest's rename
// commits the move, so a migration cut short is finished by the next.
// A top-level manifest that does not decode stays where it is.
func migrate(dir string) error {
	top := filepath.Join(dir, volume.ManifestFile)
	m, err := volume.ReadManifestFile(top)
	if err != nil {
		return nil // none, or unreadable: openVolumeDir judges
	}
	rdir := filepath.Join(dir, recordDir(m))
	if _, err := os.Lstat(filepath.Join(rdir, volume.ManifestFile)); err == nil {
		return nil // superseded by its record directory's own manifest
	}
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	if !m.Deleted {
		for i := range m.Bricks {
			b := volume.BrickFileName(i)
			if err := os.Rename(filepath.Join(dir, b), filepath.Join(rdir, b)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return os.Rename(top, filepath.Join(rdir, volume.ManifestFile))
}

// sweep brings the volume directory dir down to its committed record
// directory live. Every other record directory goes, except that the
// highest, when it lies above live's generation, is emptied and kept:
// it holds the generation floor, which must outlive a restart. Temp
// files, loose bricks and a top-level manifest (left by the layouts
// before record directories) go too. Entries the store did not make
// are left alone. Each step is a removal, so a sweep cut short is
// finished by the next.
func sweep(dir, live string) error {
	des, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	liveGen, _, _ := parseRecordDir(live)
	floor := topGen(des)
	for _, de := range des {
		name := de.Name()
		path := filepath.Join(dir, name)
		gen, _, isRecord := parseRecordDir(name)
		var err error
		switch {
		case name == live:
		case isRecord && de.IsDir() && gen == floor && gen > liveGen:
			err = emptyDir(path)
		case isRecord && de.IsDir(),
			strings.HasSuffix(name, ".tmp"),
			!de.IsDir() && (name == volume.ManifestFile || strings.HasSuffix(name, ".sfcb")):
			err = os.RemoveAll(path)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// emptyDir removes everything inside dir, keeping dir itself.
func emptyDir(dir string) error {
	des, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, de := range des {
		if err := os.RemoveAll(filepath.Join(dir, de.Name())); err != nil {
			return err
		}
	}
	return nil
}

// Unreadable returns, sorted, the volume directories Open skipped
// because their manifests did not read and that no Put has taken over
// since.
func (s *Store) Unreadable() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	dirs := make([]string, 0, len(s.unreadable))
	for d := range s.unreadable {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

func (s *Store) lockIO(name string) func() {
	mu, _ := s.iomu.LoadOrStore(name, &sync.Mutex{})
	mu.(*sync.Mutex).Lock()
	return mu.(*sync.Mutex).Unlock
}

// InfoOf derives a volume's metadata record (Resident is left false;
// only the store knows residency — see Stat).
func InfoOf(v *Volume) Info {
	nx, ny, nz := v.Grid.Dims()
	return Info{
		Name: v.Name, Dataset: v.Dataset, Layout: v.Layout,
		Dtype: v.Grid.Dtype().String(),
		Nx:    nx, Ny: ny, Nz: nz,
		Bytes: v.Grid.Bytes(), Gen: v.Gen, FilterKey: v.FilterKey,
	}
}

// Get implements VolumeStore.
func (s *Store) Get(name string) (*Volume, error) {
	for {
		s.mu.Lock()
		e, ok := s.ents[name]
		if !ok || e.deleted {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		if e.vol != nil {
			s.lru.MoveToFront(e.elem)
			v := e.vol
			s.mu.Unlock()
			s.hits.Inc(0)
			return v, nil
		}
		if s.dir == "" {
			// Unreachable by construction (no disk tier ⇒ no eviction),
			// but fail closed rather than spinning.
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		if f, ok := s.flights[name]; ok {
			s.mu.Unlock()
			<-f.done
			if f.err != nil {
				// The leader failed; the name may since have been
				// replaced by a Put, so retry once through the loop
				// rather than wedging every waiter on a stale error.
				if _, statOK := s.Stat(name); statOK {
					continue
				}
				return nil, f.err
			}
			return f.vol, nil
		}
		f := &flight{done: make(chan struct{})}
		s.flights[name] = f
		dirname := e.dirname
		s.mu.Unlock()

		s.misses.Inc(0)
		if s.testLoadDelay != nil {
			s.testLoadDelay()
		}
		start := time.Now()
		// Hold the per-name I/O lock so a concurrent Put/Delete cannot
		// remove the generation's bricks out from under the manifest
		// mid-read, which would fail the load spuriously. Under it, the
		// entry's generation is the one committed on disk.
		unlock := s.lockIO(name)
		s.mu.Lock()
		gen, deleted := e.info.Gen, e.deleted
		s.mu.Unlock()
		var vol *Volume
		var err error
		if deleted {
			// A Delete's tombstone may have swept the generation; a Put
			// can revive the entry before the check below, so decide now.
			err = ErrNotFound
		} else {
			vol, err = s.load(dirname, gen)
		}
		unlock()
		if err == nil {
			s.loads.Inc(0)
			s.loadBytes.Add(0, uint64(vol.Grid.Bytes()))
			s.loadLatency.Observe(time.Since(start))
		}

		s.mu.Lock()
		delete(s.flights, name)
		if err == nil {
			// Insert into the RAM tier only if the name still describes
			// what was loaded: not deleted, not replaced, not already
			// re-loaded by someone else.
			if cur := s.ents[name]; cur == e && !e.deleted && e.info.Gen == vol.Gen && e.vol == nil {
				s.insertResident(e, vol)
			}
		} else if errors.Is(err, ErrNotFound) || e.deleted || s.ents[name] != e {
			// Deleted or replaced underneath the load: the read error is
			// an artifact of the race, not a store failure.
			err = fmt.Errorf("%w: %q", ErrNotFound, name)
		} else {
			err = fmt.Errorf("store: loading %q (gen %d): %w", name, gen, err)
		}
		s.mu.Unlock()

		f.vol, f.err = vol, err
		close(f.done)
		if err != nil {
			return nil, err
		}
		return vol, nil
	}
}

// load reads generation gen of a volume from its directory: manifest,
// layout reconstruction, then a sequential read of the generation's
// bricks into the fresh grid's backing slice.
func (s *Store) load(dirname string, gen uint64) (*Volume, error) {
	gdir := filepath.Join(s.dir, dirname, genDir(gen))
	m, err := volume.ReadManifestFile(filepath.Join(gdir, volume.ManifestFile))
	if err != nil {
		return nil, err
	}
	if m.Deleted || m.Gen != gen {
		return nil, fmt.Errorf("%s: manifest of generation %d (deleted %v) in %s", dirname, m.Gen, m.Deleted, genDir(gen))
	}
	if err := volume.StatBricks(gdir, m); err != nil {
		return nil, err
	}
	l, err := sfcmem.ParseLayoutSpec(m.Layout, m.Nx, m.Ny, m.Nz)
	if err != nil {
		return nil, err
	}
	if int64(l.Len()) != m.Elems {
		return nil, fmt.Errorf("layout %s %dx%dx%d holds %d elems in this build, manifest has %d (layout geometry changed?)",
			m.Layout, m.Nx, m.Ny, m.Nz, l.Len(), m.Elems)
	}
	dt, err := sfcmem.ParseDtype(m.Dtype)
	if err != nil {
		return nil, err
	}
	g, err := readGrid(gdir, m, dt, l)
	if err != nil {
		return nil, err
	}
	return &Volume{
		Name: m.Name, Dataset: m.Dataset, Layout: m.Layout,
		Grid: g, Gen: m.Gen, FilterKey: m.FilterKey,
	}, nil
}

func readGrid(dir string, m *volume.Manifest, dt sfcmem.Dtype, l sfcmem.Layout) (*sfcmem.AnyGrid, error) {
	switch dt {
	case sfcmem.U8:
		return readGridOf[uint8](dir, m, l)
	case sfcmem.U16:
		return readGridOf[uint16](dir, m, l)
	case sfcmem.F64:
		return readGridOf[float64](dir, m, l)
	default:
		return readGridOf[float32](dir, m, l)
	}
}

func readGridOf[T sfcmem.Scalar](dir string, m *volume.Manifest, l sfcmem.Layout) (*sfcmem.AnyGrid, error) {
	g := sfcmem.NewGridOf[T](l)
	if err := volume.ReadBricksInto(dir, m, g.Data()); err != nil {
		return nil, err
	}
	return sfcmem.WrapAny(g), nil
}

func writeGrid(dir string, a *sfcmem.AnyGrid, brickElems int) ([]volume.BrickInfo, error) {
	switch a.Dtype() {
	case sfcmem.U8:
		return volume.WriteBricks(dir, sfcmem.Grids[uint8](a).Data(), brickElems)
	case sfcmem.U16:
		return volume.WriteBricks(dir, sfcmem.Grids[uint16](a).Data(), brickElems)
	case sfcmem.F64:
		return volume.WriteBricks(dir, sfcmem.Grids[float64](a).Data(), brickElems)
	default:
		return volume.WriteBricks(dir, sfcmem.Grids[float32](a).Data(), brickElems)
	}
}

// insertResident links vol into the RAM tier and evicts over-budget
// volumes from the cold end. Called with mu held. The newly inserted
// volume itself may be evicted immediately when it alone exceeds the
// budget — callers already hold a reference, and the next Get pages
// it back in (that is what a below-volume-size budget is asking for).
func (s *Store) insertResident(e *entry, vol *Volume) {
	if e.vol != nil {
		s.dropResident(e)
	}
	e.vol = vol
	e.info = InfoOf(vol)
	e.deleted = false
	e.elem = s.lru.PushFront(e)
	s.resident += e.info.Bytes
	s.evictOverBudget()
}

// evictOverBudget frees RAM from the cold end of the LRU until the tier
// fits its budget: derived values first — each is rebuilt from its
// resident volume, far cheaper than reloading a volume from bricks —
// then whole volumes. Called with mu held.
func (s *Store) evictOverBudget() {
	if s.dir == "" || s.budget <= 0 {
		return
	}
	for el := s.lru.Back(); el != nil && s.resident > s.budget; el = el.Prev() {
		e := el.Value.(*entry)
		s.resident -= e.derivedBytes
		e.derived, e.derivedBytes = nil, 0
	}
	for s.resident > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		s.dropResident(back.Value.(*entry))
		s.evictions.Inc(0)
	}
}

// dropResident unlinks e's resident volume, and every value derived
// from it, from the RAM tier. Called with mu held.
func (s *Store) dropResident(e *entry) {
	s.lru.Remove(e.elem)
	s.resident -= e.info.Bytes + e.derivedBytes
	e.elem, e.vol = nil, nil
	e.derived, e.derivedBytes = nil, 0
}

// Derived implements VolumeStore.
func (s *Store) Derived(v *Volume, key string, build func() (any, int64, error)) (val any, built bool, err error) {
	s.mu.Lock()
	e := s.ents[v.Name]
	if e == nil || e.vol != v {
		s.mu.Unlock()
		val, _, err := build()
		return val, true, err
	}
	if d, ok := e.derived[key]; ok {
		s.mu.Unlock()
		<-d.done
		return d.val, false, d.err
	}
	d := &derivation{done: make(chan struct{})}
	if e.derived == nil {
		e.derived = make(map[string]*derivation)
	}
	e.derived[key] = d
	s.mu.Unlock()
	defer close(d.done)

	d.val, d.bytes, d.err = build()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case e.derived[key] != d:
		// v was dropped while the value was built: hand it out, keep
		// nothing.
	case d.err != nil:
		delete(e.derived, key)
	default:
		e.derivedBytes += d.bytes
		s.resident += d.bytes
		s.evictOverBudget()
	}
	return d.val, true, d.err
}

// Put implements VolumeStore.
func (s *Store) Put(v *Volume) error {
	if v.Name == "" {
		return errors.New("store: volume name must be non-empty")
	}
	s.mu.Lock()
	e, ok := s.ents[v.Name]
	if !ok {
		e = &entry{name: v.Name, dirname: dirFor(v.Name)}
		// The name's directory may hold generations no manifest commits
		// (one Open could not read, or a first Put cut short): take it
		// over above all of them.
		if s.dir != "" {
			e.lastGen = maxGenDir(filepath.Join(s.dir, e.dirname))
			delete(s.unreadable, e.dirname)
		}
		s.ents[v.Name] = e
	}
	e.lastGen++
	v.Gen = e.lastGen
	s.mu.Unlock()

	if s.dir == "" {
		s.commit(e, v)
		return nil
	}

	unlock := s.lockIO(v.Name)
	defer unlock()
	// Superseded while waiting for the directory? Skip both the write
	// and the commit: the later generation owns the name now.
	s.mu.Lock()
	superseded := e.lastGen != v.Gen
	s.mu.Unlock()
	if superseded {
		return nil
	}
	if err := s.persist(e.dirname, v); err != nil {
		s.mu.Lock()
		// A name whose first commit failed has nothing to serve: drop
		// it, unless a later Put of the name has taken the entry since.
		if e.info.Gen == 0 && e.lastGen == v.Gen && s.ents[v.Name] == e {
			delete(s.ents, v.Name)
		}
		s.mu.Unlock()
		return fmt.Errorf("store: persisting %q: %w", v.Name, err)
	}
	s.writes.Inc(0)
	s.writeBytes.Add(0, uint64(v.Grid.Bytes()))
	s.commit(e, v)
	return nil
}

// commit makes v the entry's live state unless a newer generation has
// committed. A persisted v is always newer: Puts persist one at a time,
// in generation order, and each is committed before the next persists,
// so a v a later Put's generation has already superseded still becomes
// what a load would find on disk until that Put commits.
func (s *Store) commit(e *entry, v *Volume) {
	s.mu.Lock()
	if v.Gen > e.info.Gen {
		s.insertResident(e, v)
	}
	s.mu.Unlock()
}

// persist writes v under the store's data dir, into the directory of
// v's generation, which is new: no committed manifest names it, so
// nothing reads its bricks before the commit, and a failed write leaves
// the committed generation untouched. The manifest's rename to
// g<gen>/manifest.json, a name that did not exist, is the single
// commit point; only after it do older record directories go.
func (s *Store) persist(dirname string, v *Volume) error {
	dir := filepath.Join(s.dir, dirname)
	live := genDir(v.Gen)
	gdir := filepath.Join(dir, live)
	if err := os.MkdirAll(gdir, 0o755); err != nil {
		return err
	}
	if err := s.writeGeneration(gdir, v); err != nil {
		_ = os.RemoveAll(gdir) // uncommitted; Open sweeps what this leaves
		return err
	}
	// Committed: a failed removal leaves only garbage that nothing
	// names, for the next Put or Open to sweep.
	_ = sweep(dir, live)
	return nil
}

// writeGeneration writes v's bricks into gdir and commits them with
// the manifest beside them.
func (s *Store) writeGeneration(gdir string, v *Volume) error {
	es := v.Grid.Dtype().Size()
	brickElems := s.brickBytes / es
	if brickElems < 1 {
		brickElems = 1
	}
	infos, err := writeGrid(gdir, v.Grid, brickElems)
	if err != nil {
		return err
	}
	nx, ny, nz := v.Grid.Dims()
	m := &volume.Manifest{
		Version: volume.ManifestVersion,
		Name:    v.Name, Dataset: v.Dataset, Layout: v.Layout,
		Dtype: v.Grid.Dtype().String(), Nx: nx, Ny: ny, Nz: nz,
		Elems:      v.Grid.Bytes() / int64(es),
		BrickElems: brickElems,
		Gen:        v.Gen, FilterKey: v.FilterKey,
		Bricks: infos,
	}
	return volume.WriteManifestFile(filepath.Join(gdir, volume.ManifestFile), m)
}

// Delete implements VolumeStore.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	e, ok := s.ents[name]
	if !ok || e.deleted {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.deleted = true
	if e.vol != nil {
		s.dropResident(e)
	}
	// Only a Put's commit clears deleted, and it raises the committed
	// generation, so that generation tells this Delete's deletion apart
	// from a later one's.
	gen := e.info.Gen
	s.mu.Unlock()

	if s.dir == "" {
		return nil
	}
	unlock := s.lockIO(name)
	defer unlock()
	s.mu.Lock()
	current := e.deleted && e.info.Gen == gen
	s.mu.Unlock()
	if !current {
		return nil // a Put committed over the delete; its state owns the disk
	}
	// The tombstone keeps only what a re-create needs — the name and
	// the generation floor; shape fields are placeholders that satisfy
	// manifest validation. It commits in a record directory of its own,
	// g<gen>.deleted for the committed generation gen it deletes, so a
	// Put whose generation was assigned before this Delete and persists
	// after it still commits above the tombstone, as it does in RAM.
	dir := filepath.Join(s.dir, e.dirname)
	m := &volume.Manifest{
		Version: volume.ManifestVersion,
		Name:    name, Dtype: "float32",
		Nx: 1, Ny: 1, Nz: 1, Elems: 1,
		Gen: gen, Deleted: true,
	}
	live := recordDir(m)
	tdir := filepath.Join(dir, live)
	err := os.MkdirAll(tdir, 0o755)
	if err == nil {
		err = volume.WriteManifestFile(filepath.Join(tdir, volume.ManifestFile), m)
	}
	if err != nil {
		_ = os.RemoveAll(tdir)
		return fmt.Errorf("store: tombstoning %q: %w", name, err)
	}
	_ = sweep(dir, live) // as in persist: the tombstone is the commit
	return nil
}

// Stat implements VolumeStore.
func (s *Store) Stat(name string) (Info, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.ents[name]
	if !ok || e.deleted {
		return Info{}, false
	}
	info := e.info
	info.Resident = e.vol != nil
	return info, true
}

// List implements VolumeStore.
func (s *Store) List() []Info {
	s.mu.Lock()
	out := make([]Info, 0, len(s.ents))
	for _, e := range s.ents {
		if e.deleted {
			continue
		}
		info := e.info
		info.Resident = e.vol != nil
		out = append(out, info)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResidentBytes reports the RAM tier's current occupancy.
func (s *Store) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}
