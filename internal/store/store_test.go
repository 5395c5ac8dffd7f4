package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sfcmem"
	"sfcmem/internal/metrics"
	"sfcmem/internal/volume"
)

// testVolume builds a small deterministic float32 volume. seed varies
// the samples so replaced generations are distinguishable.
func testVolume(t testing.TB, name string, seed int) *Volume {
	t.Helper()
	kind, err := sfcmem.ParseLayout("zorder")
	if err != nil {
		t.Fatal(err)
	}
	l := sfcmem.NewLayout(kind, 8, 8, 8)
	g := sfcmem.NewGridOf[float32](l)
	data := g.Data()
	for i := range data {
		data[i] = float32((i*31 + seed) % 257)
	}
	return &Volume{Name: name, Dataset: "test", Layout: "zorder", Grid: sfcmem.WrapAny(g)}
}

func samples(v *Volume) []float32 { return sfcmem.Grids[float32](v.Grid).Data() }

func TestMemoryParity(t *testing.T) {
	s := NewMemory(nil)
	v1 := testVolume(t, "a", 1)
	if err := s.Put(v1); err != nil {
		t.Fatal(err)
	}
	if v1.Gen != 1 {
		t.Fatalf("first Put gen = %d, want 1", v1.Gen)
	}
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got != v1 {
		t.Fatal("RAM-only Get should return the stored *Volume unchanged")
	}
	v2 := testVolume(t, "a", 2)
	if err := s.Put(v2); err != nil {
		t.Fatal(err)
	}
	if v2.Gen != 2 {
		t.Fatalf("replacement gen = %d, want 2", v2.Gen)
	}
	if err := s.Put(testVolume(t, "b", 3)); err != nil {
		t.Fatal(err)
	}
	list := s.List()
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("List = %+v", list)
	}
	for _, in := range list {
		if !in.Resident {
			t.Fatalf("RAM-only store reports %q non-resident", in.Name)
		}
	}
	if in, ok := s.Stat("a"); !ok || in.Gen != 2 || in.Dtype != "float32" || in.Nx != 8 {
		t.Fatalf("Stat(a) = %+v, %v", in, ok)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: %v", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete: %v", err)
	}
	v3 := testVolume(t, "a", 4)
	if err := s.Put(v3); err != nil {
		t.Fatal(err)
	}
	if v3.Gen != 3 {
		t.Fatalf("re-create after delete gen = %d, want 3 (strictly higher)", v3.Gen)
	}
}

func TestTieredPersistReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := testVolume(t, "vol/with spaces", 5)
	v.FilterKey = "fk-123"
	if err := s.Put(v); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testVolume(t, "vol/with spaces", 6)); err != nil {
		t.Fatal(err) // gen 2 replaces gen 1
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, ok := r.Stat("vol/with spaces")
	if !ok {
		t.Fatal("reopened store lost the volume")
	}
	if in.Resident {
		t.Fatal("reopen should index manifests, not load bricks")
	}
	if in.Gen != 2 || in.Dataset != "test" || in.Layout != "zorder" {
		t.Fatalf("reopened Stat = %+v", in)
	}
	got, err := r.Get("vol/with spaces")
	if err != nil {
		t.Fatal(err)
	}
	want := testVolume(t, "vol/with spaces", 6)
	if !reflect.DeepEqual(samples(got), samples(want)) {
		t.Fatal("reloaded samples differ from what was stored")
	}
	if got.Gen != 2 {
		t.Fatalf("reloaded gen = %d, want 2", got.Gen)
	}
	if in, _ := r.Stat("vol/with spaces"); !in.Resident {
		t.Fatal("demand-loaded volume should be resident")
	}
}

func TestFilterKeySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := testVolume(t, "filtered", 7)
	v.FilterKey = "digest-of-filter-run"
	if err := s.Put(v); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in, ok := r.Stat("filtered"); !ok || in.FilterKey != "digest-of-filter-run" {
		t.Fatalf("FilterKey did not survive reopen: %+v, %v", in, ok)
	}
	got, err := r.Get("filtered")
	if err != nil {
		t.Fatal(err)
	}
	if got.FilterKey != "digest-of-filter-run" {
		t.Fatalf("loaded FilterKey = %q", got.FilterKey)
	}
}

func TestEvictionAndDemandLoad(t *testing.T) {
	volBytes := int64(8 * 8 * 8 * 4)
	reg := metrics.NewRegistry()
	dir := t.TempDir()
	s, err := Open(dir, Options{RAMBytes: volBytes + volBytes/2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testVolume(t, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testVolume(t, "b", 2)); err != nil {
		t.Fatal(err)
	}
	// Budget holds 1.5 volumes: storing b must evict a.
	if s.evictions.Total() != 1 {
		t.Fatalf("evictions = %d, want 1", s.evictions.Total())
	}
	if in, _ := s.Stat("a"); in.Resident {
		t.Fatal("a should have been evicted")
	}
	if in, _ := s.Stat("b"); !in.Resident {
		t.Fatal("b should be resident")
	}
	if s.ResidentBytes() != volBytes {
		t.Fatalf("resident bytes = %d, want %d", s.ResidentBytes(), volBytes)
	}

	got, err := s.Get("a") // demand page a back in; b becomes the LRU victim
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(samples(got), samples(testVolume(t, "a", 1))) {
		t.Fatal("demand-loaded samples differ")
	}
	if s.loads.Total() != 1 {
		t.Fatalf("loads = %d, want 1", s.loads.Total())
	}
	if s.loadBytes.Total() != uint64(volBytes) {
		t.Fatalf("load_bytes = %d, want %d", s.loadBytes.Total(), volBytes)
	}
	if in, _ := s.Stat("b"); in.Resident {
		t.Fatal("paging a in should evict b")
	}
	if s.loadLatency.Count() != 1 {
		t.Fatalf("load_latency count = %d, want 1", s.loadLatency.Count())
	}
}

// TestBudgetBelowVolumeSize pins the forced-demand-paging contract: a
// budget smaller than a single volume keeps nothing resident, yet
// every Get still serves the full volume.
func TestBudgetBelowVolumeSize(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{RAMBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testVolume(t, "big", 9)); err != nil {
		t.Fatal(err)
	}
	if in, _ := s.Stat("big"); in.Resident {
		t.Fatal("volume larger than the budget should not stay resident")
	}
	for i := 0; i < 3; i++ {
		got, err := s.Get("big")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(samples(got), samples(testVolume(t, "big", 9))) {
			t.Fatalf("get %d: samples differ", i)
		}
	}
	if s.loads.Total() != 3 {
		t.Fatalf("loads = %d, want 3 (every Get pages in)", s.loads.Total())
	}
}

func TestSingleFlight(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{RAMBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testVolume(t, "a", 3)); err != nil {
		t.Fatal(err)
	}
	// The tiny budget evicted "a" immediately. Raise it so the single
	// demand load stays resident, making late arrivals cache hits.
	s.mu.Lock()
	s.budget = 1 << 30
	s.mu.Unlock()

	const n = 16
	var started sync.WaitGroup
	started.Add(n)
	s.testLoadDelay = func() { started.Wait() } // leader blocks until all n are past Add

	var wg sync.WaitGroup
	vols := make([]*Volume, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			v, err := s.Get("a")
			if err != nil {
				t.Errorf("get %d: %v", i, err)
				return
			}
			vols[i] = v
		}(i)
	}
	wg.Wait()
	if s.loads.Total() != 1 {
		t.Fatalf("loads = %d, want 1 (stampede must coalesce)", s.loads.Total())
	}
	for i := 1; i < n; i++ {
		if vols[i] != vols[0] {
			t.Fatalf("goroutine %d got a different volume instance", i)
		}
	}
}

func TestCorruptedBrickSurfaces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testVolume(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	// Find the volume's brick and flip a payload bit.
	matches, err := filepath.Glob(filepath.Join(dir, "*", genDir(1), "00000.sfcb"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("glob: %v %v", matches, err)
	}
	b, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	b[volume.BrickHeaderLen+3] ^= 0x01
	if err := os.WriteFile(matches[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Get("a")
	if err == nil {
		t.Fatal("corrupted brick served without error")
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatalf("corruption must not masquerade as not-found: %v", err)
	}
	if !strings.Contains(err.Error(), "sha256") || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("error should name the volume and the failed digest: %v", err)
	}
}

func TestDeleteTombstoneAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testVolume(t, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testVolume(t, "a", 2)); err != nil {
		t.Fatal(err) // gen 2
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: %v", err)
	}
	// Generation directories are gone; only the tombstone's record
	// directory remains, holding its manifest.
	tomb := filepath.Join(dir, dirFor("a"), genDir(2)+deletedSuffix, volume.ManifestFile)
	if m, _ := filepath.Glob(filepath.Join(dir, "*", "*", "*")); len(m) != 1 || m[0] != tomb {
		t.Fatalf("delete left %v, want only %s", m, tomb)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*", "*")); len(m) != 1 {
		t.Fatalf("delete left %v, want only the tombstone's directory", m)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Stat("a"); ok {
		t.Fatal("deleted volume visible after reopen")
	}
	if list := r.List(); len(list) != 0 {
		t.Fatalf("List after reopen = %+v", list)
	}
	v := testVolume(t, "a", 3)
	if err := r.Put(v); err != nil {
		t.Fatal(err)
	}
	if v.Gen != 3 {
		t.Fatalf("re-create across restart gen = %d, want 3 (tombstone keeps the floor)", v.Gen)
	}
}

func TestDirForSafety(t *testing.T) {
	a := dirFor("../../etc/passwd")
	if strings.Contains(a, "/") || strings.HasPrefix(a, ".") {
		t.Fatalf("dirFor must not escape the data dir: %q", a)
	}
	if dirFor("x") == dirFor("y") {
		t.Fatal("distinct names collide")
	}
	long := strings.Repeat("n", 100)
	if b := dirFor(long); len(b) > 60 {
		t.Fatalf("dirFor too long: %d", len(b))
	}
	if dirFor(long) == dirFor(long+"z") {
		t.Fatal("long names that share a prefix collide")
	}
}

// TestConcurrentStress hammers one store with mixed operations; run
// under -race it checks the locking protocol, and the final pass
// checks every surviving name still round-trips its samples.
func TestConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	volBytes := int64(8 * 8 * 8 * 4)
	s, err := Open(dir, Options{RAMBytes: 2 * volBytes})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c", "d"}
	for i, n := range names {
		if err := s.Put(testVolume(t, n, i)); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				name := names[rng.Intn(len(names))]
				switch rng.Intn(10) {
				case 0:
					if err := s.Put(testVolume(t, name, rng.Intn(100))); err != nil {
						t.Errorf("put %s: %v", name, err)
					}
				case 1:
					if err := s.Delete(name); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("delete %s: %v", name, err)
					}
				case 2:
					s.List()
				case 3:
					s.Stat(name)
				default:
					v, err := s.Get(name)
					if err != nil {
						if !errors.Is(err, ErrNotFound) {
							t.Errorf("get %s: %v", name, err)
						}
						continue
					}
					if got := len(samples(v)); got != 8*8*8 {
						t.Errorf("get %s: %d samples", name, got)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, in := range s.List() {
		if _, err := s.Get(in.Name); err != nil {
			t.Errorf("post-stress get %s: %v", in.Name, err)
		}
	}
	// Everything listed must also survive a reopen intact.
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := s.List()
	got := r.List()
	if len(got) != len(want) {
		t.Fatalf("reopen lost volumes: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Gen != want[i].Gen {
			t.Errorf("reopen entry %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	for _, in := range got {
		if _, err := r.Get(in.Name); err != nil {
			t.Errorf("reopen get %s: %v", in.Name, err)
		}
	}
}

// TestPutErrorKeepsPreviousContents: a failed persist must not damage
// the live volume, in RAM or on disk. A regular file where generation
// 2's directory goes fails the write for root too.
func TestPutErrorKeepsPreviousContents(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testVolume(t, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, dirFor("a"), genDir(2)), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testVolume(t, "a", 2)); err == nil {
		t.Fatal("persist through a file in the generation directory's place should fail")
	}
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(samples(got), samples(testVolume(t, "a", 1))) {
		t.Fatal("failed Put corrupted the live volume")
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err = r.Get("a")
	if err != nil {
		t.Fatalf("reopened Get: %v", err)
	}
	if !reflect.DeepEqual(samples(got), samples(testVolume(t, "a", 1))) || got.Gen != 1 {
		t.Fatalf("failed Put lost generation 1 on disk: reopened gen %d", got.Gen)
	}
}

// TestDerivedLifecycle pins Derived's contract: one build per resident
// generation shared by concurrent callers, bytes charged to the RAM
// tier, and the value dropped on replace, on delete and on eviction.
func TestDerivedLifecycle(t *testing.T) {
	volBytes := int64(8 * 8 * 8 * 4)
	s, err := Open(t.TempDir(), Options{RAMBytes: 3 * volBytes})
	if err != nil {
		t.Fatal(err)
	}
	var builds sync.Map // key → count
	derive := func(name, key string) (any, bool) {
		t.Helper()
		v, err := s.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		val, built, err := s.Derived(v, key, func() (any, int64, error) {
			n, _ := builds.LoadOrStore(name+"/"+key, new(int))
			*n.(*int)++
			return v.Gen, volBytes / 2, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return val, built
	}
	count := func(k string) int {
		n, ok := builds.Load(k)
		if !ok {
			return 0
		}
		return *n.(*int)
	}
	if err := s.Put(testVolume(t, "a", 1)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); derive("a", "u8") }()
	}
	wg.Wait()
	if n := count("a/u8"); n != 1 {
		t.Fatalf("8 concurrent callers ran %d builds, want 1", n)
	}
	if _, built := derive("a", "u8"); built {
		t.Error("resident value rebuilt")
	}
	if got, want := s.ResidentBytes(), volBytes+volBytes/2; got != want {
		t.Errorf("resident bytes = %d, want %d (volume + derived)", got, want)
	}

	// Replace: a new generation builds its own value once.
	if err := s.Put(testVolume(t, "a", 2)); err != nil {
		t.Fatal(err)
	}
	if got := s.ResidentBytes(); got != volBytes {
		t.Errorf("after replace resident bytes = %d, want %d", got, volBytes)
	}
	if val, built := derive("a", "u8"); !built || val != uint64(2) || count("a/u8") != 2 {
		t.Errorf("after replace: val %v built %v builds %d", val, built, count("a/u8"))
	}

	// Eviction drops the value with the volume: b, c and d push a out.
	for _, n := range []string{"b", "c", "d"} {
		if err := s.Put(testVolume(t, n, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if in, _ := s.Stat("a"); in.Resident {
		t.Fatal("a should have been evicted")
	}
	if _, built := derive("a", "u8"); !built || count("a/u8") != 3 {
		t.Errorf("after eviction: built %v builds %d", built, count("a/u8"))
	}

	// Delete drops it too, and a stale volume's value is not kept.
	v, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, built, _ := s.Derived(v, "u8", func() (any, int64, error) { return 0, volBytes, nil }); !built {
			t.Error("value of a deleted volume served from the store")
		}
	}
	var resident int64
	for _, in := range s.List() {
		if in.Resident {
			resident += in.Bytes
		}
	}
	if s.ResidentBytes() != resident {
		t.Errorf("resident bytes %d, resident volumes hold %d: derived bytes leaked", s.ResidentBytes(), resident)
	}

	// A failed build is not kept.
	b, err := s.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, _, err := s.Derived(b, "x", func() (any, int64, error) { return nil, 0, boom }); err != boom {
		t.Fatalf("failed build: err %v", err)
	}
	if _, built, err := s.Derived(b, "x", func() (any, int64, error) { return 1, 0, nil }); !built || err != nil {
		t.Errorf("retry after a failed build: built %v err %v", built, err)
	}
}

// TestDerivedEvictedBeforeVolumes: over budget, the RAM tier drops
// derived values — rebuilt from memory — before it evicts a volume that
// would have to be reloaded from bricks.
func TestDerivedEvictedBeforeVolumes(t *testing.T) {
	volBytes := int64(8 * 8 * 8 * 4)
	s, err := Open(t.TempDir(), Options{RAMBytes: 2*volBytes + volBytes/4})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if err := s.Put(testVolume(t, n, 1)); err != nil {
			t.Fatal(err)
		}
	}
	derive := func(name string) bool {
		v, err := s.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		_, built, err := s.Derived(v, "k", func() (any, int64, error) { return 0, volBytes / 4, nil })
		if err != nil {
			t.Fatal(err)
		}
		return built
	}
	derive("a") // fits: 2.25 volumes
	// b's value pushes the tier over budget; a's, the colder, goes.
	derive("b")
	if !derive("a") {
		t.Error("a's value survived b's: derived values are not dropped coldest first")
	}
	if s.evictions.Total() != 0 {
		t.Errorf("%d volumes evicted for a derived value's sake", s.evictions.Total())
	}
	for _, n := range []string{"a", "b"} {
		if in, _ := s.Stat(n); !in.Resident {
			t.Errorf("%s evicted; only derived values should have gone", n)
		}
	}
	if s.ResidentBytes() > 2*volBytes+volBytes/4 {
		t.Errorf("resident bytes %d over the budget", s.ResidentBytes())
	}
}

// fileDigests maps every regular file under dir, by slash path
// relative to dir, to the sha256 of its bytes.
func fileDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		sum := sha256.Sum256(b)
		out[filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFailedPutKeepsCommittedGeneration fails generation 2's write at
// its first brick, at a middle brick and at the manifest, by putting a
// directory where the write creates a file, which fails for root too.
// The failed Put must leave generation 1 byte-identical on disk, and a
// reopened store must serve generation 1 with the leftovers swept.
func TestFailedPutKeepsCommittedGeneration(t *testing.T) {
	for _, c := range []struct{ name, obstacle string }{
		{"brick 0", filepath.Join(genDir(2), volume.BrickFileName(0))},
		{"middle brick", filepath.Join(genDir(2), volume.BrickFileName(2))},
		{"manifest", filepath.Join(genDir(2), volume.ManifestFile+".tmp")},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{BrickBytes: 512}) // four bricks
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(testVolume(t, "a", 1)); err != nil {
				t.Fatal(err)
			}
			vdir := filepath.Join(dir, dirFor("a"))
			before := fileDigests(t, vdir)
			if len(before) != 5 {
				t.Fatalf("generation 1 wrote %d files, want a manifest and 4 bricks: %v", len(before), before)
			}
			if err := os.MkdirAll(filepath.Join(vdir, c.obstacle), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(testVolume(t, "a", 2)); err == nil {
				t.Fatal("Put succeeded through the obstacle")
			}
			if got := fileDigests(t, vdir); !reflect.DeepEqual(got, before) {
				t.Fatalf("failed Put changed the files on disk:\n got %v\nwant %v", got, before)
			}

			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if in, ok := r.Stat("a"); !ok || in.Gen != 1 {
				t.Fatalf("reopened Stat = %+v, %v; want generation 1", in, ok)
			}
			got, err := r.Get("a")
			if err != nil {
				t.Fatalf("reopened Get: %v", err)
			}
			if !reflect.DeepEqual(samples(got), samples(testVolume(t, "a", 1))) {
				t.Fatal("reopened volume is not generation 1")
			}
			ents, err := os.ReadDir(vdir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 || ents[0].Name() != genDir(1) {
				t.Fatalf("reopen left %v, want only %s", ents, genDir(1))
			}
			if err := r.Put(testVolume(t, "a", 3)); err != nil {
				t.Fatalf("Put after the reopen: %v", err)
			}
		})
	}
}

// TestOpenSweepsLeftovers: Open removes every record directory no
// manifest commits, every temp file, loose brick and stale top-level
// manifest, and keeps what the store did not make. The directory at
// the generation floor, when above the committed generation, stays
// empty so the floor outlives the restart; a tombstoned volume keeps
// its tombstone and no generation.
func TestOpenSweepsLeftovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= 2; seed++ {
		if err := s.Put(testVolume(t, "a", seed)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(testVolume(t, "gone", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	plant := func(vdir string, files ...string) {
		for _, f := range files {
			path := filepath.Join(vdir, f)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	adir, gonedir := filepath.Join(dir, dirFor("a")), filepath.Join(dir, dirFor("gone"))
	plant(adir, "g1/00000.sfcb", "g7/00000.sfcb", "g3.deleted/manifest.json.tmp", "manifest.json.tmp",
		"manifest.json", "00009.sfcb", "notes.txt", "gallery/00000.sfcb")
	plant(gonedir, "g1/00000.sfcb", "g0/00000.sfcb.tmp")

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		adir:                                 {"g2", "g7", "gallery", "notes.txt"},
		filepath.Join(adir, "g7"):            nil,
		gonedir:                              {"g1.deleted"},
		filepath.Join(gonedir, "g1.deleted"): {"manifest.json"},
	}
	for vdir, names := range want {
		ents, err := os.ReadDir(vdir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range ents {
			got = append(got, e.Name())
		}
		if !reflect.DeepEqual(got, names) {
			t.Errorf("%s after Open: %v, want %v", filepath.Base(vdir), got, names)
		}
	}
	got, err := r.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(samples(got), samples(testVolume(t, "a", 2))) || got.Gen != 2 {
		t.Fatal("swept store does not serve generation 2")
	}
	if _, ok := r.Stat("gone"); ok {
		t.Fatal("tombstoned volume visible after the sweep")
	}
	v := testVolume(t, "a", 3)
	if err := r.Put(v); err != nil {
		t.Fatal(err)
	}
	if v.Gen != 8 {
		t.Fatalf("Put after the sweep took generation %d, want 8 (above the g7 on disk)", v.Gen)
	}
	if _, err := os.Stat(filepath.Join(adir, "g7")); !os.IsNotExist(err) {
		t.Fatalf("the floor's empty directory survives generation 8's commit: %v", err)
	}
}

// TestOpenMigratesFlatLayout opens a data dir in the layout that kept
// bricks beside the manifest, one brick already moved by a migration
// that was cut short and one stale brick past the manifest's count. The
// bricks and then the manifest must move, byte for byte, into the
// generation's directory, the stale brick must go, and the volume must
// load and take a new generation.
func TestOpenMigratesFlatLayout(t *testing.T) {
	dir := t.TempDir()
	vdir := filepath.Join(dir, dirFor("old"))
	v := testVolume(t, "old", 5)
	if err := os.Mkdir(vdir, 0o755); err != nil {
		t.Fatal(err)
	}
	infos, err := volume.WriteBricks(vdir, samples(v), 128) // four bricks
	if err != nil {
		t.Fatal(err)
	}
	m := &volume.Manifest{
		Version: volume.ManifestVersion, Name: "old", Dataset: "test", Layout: "zorder",
		Dtype: "float32", Nx: 8, Ny: 8, Nz: 8, Elems: 512, BrickElems: 128, Gen: 3, Bricks: infos,
	}
	if err := volume.WriteManifestFile(filepath.Join(vdir, volume.ManifestFile), m); err != nil {
		t.Fatal(err)
	}
	flat := fileDigests(t, vdir)
	if err := os.WriteFile(filepath.Join(vdir, volume.BrickFileName(4)), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(vdir, genDir(3)), 0o755); err != nil {
		t.Fatal(err)
	}
	b1 := volume.BrickFileName(1)
	if err := os.Rename(filepath.Join(vdir, b1), filepath.Join(vdir, genDir(3), b1)); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{genDir(3) + "/" + volume.ManifestFile: flat[volume.ManifestFile]}
	for i := range infos {
		b := volume.BrickFileName(i)
		want[genDir(3)+"/"+b] = flat[b]
	}
	if got := fileDigests(t, vdir); !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated files:\n got %v\nwant %v", got, want)
	}
	got, err := s.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(samples(got), samples(v)) || got.Gen != 3 {
		t.Fatal("migrated volume does not load as generation 3")
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatalf("second Open: %v", err)
	}
	if got := fileDigests(t, vdir); !reflect.DeepEqual(got, want) {
		t.Fatalf("second Open moved files again: %v", got)
	}
	if err := s.Put(testVolume(t, "old", 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(vdir, genDir(3))); !os.IsNotExist(err) {
		t.Fatalf("generation 3's directory survives generation 4's commit: %v", err)
	}
}

// TestOpenSkipsUnreadableManifest: one volume's only manifest truncated
// to zero bytes costs that volume only. Open succeeds, the other volumes
// load unchanged, the directory is left exactly as it was and counted
// in store.unreadable_dirs, and a later Put of its name takes it over
// above the generation it held.
func TestOpenSkipsUnreadableManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b", "torn"} {
		for seed := 1; seed <= i+1; seed++ {
			if err := s.Put(testVolume(t, name, 10*i+seed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tdir := filepath.Join(dir, dirFor("torn"))
	if err := os.Truncate(filepath.Join(tdir, genDir(3), volume.ManifestFile), 0); err != nil {
		t.Fatal(err)
	}
	// A leftover the sweep would remove, had it run.
	if err := os.WriteFile(filepath.Join(tdir, "manifest.json.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		var paths []string
		filepath.WalkDir(tdir, func(path string, _ fs.DirEntry, err error) error {
			paths = append(paths, path)
			return err
		})
		return paths
	}
	before := listing()

	reg := metrics.NewRegistry()
	r, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatalf("Open with one unreadable manifest: %v", err)
	}
	for i, name := range []string{"a", "b"} {
		got, err := r.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		want := testVolume(t, name, 10*i+i+1)
		if !reflect.DeepEqual(samples(got), samples(want)) || got.Gen != uint64(i+1) {
			t.Fatalf("%s after the reopen: gen %d or samples differ from what was stored", name, got.Gen)
		}
	}
	if n := reg.Snapshot()["store.unreadable_dirs"]; n != 1 {
		t.Fatalf("store.unreadable_dirs = %v, want 1", n)
	}
	if got := r.Unreadable(); !reflect.DeepEqual(got, []string{dirFor("torn")}) {
		t.Fatalf("Unreadable() = %v", got)
	}
	if after := listing(); !reflect.DeepEqual(after, before) {
		t.Fatalf("Open touched the unreadable directory: %v, was %v", after, before)
	}
	if _, err := r.Get("torn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the unreadable volume: %v, want ErrNotFound", err)
	}

	v := testVolume(t, "torn", 99)
	if err := r.Put(v); err != nil {
		t.Fatal(err)
	}
	if v.Gen != 4 {
		t.Fatalf("takeover gen = %d, want 4 (above the g3 the directory held)", v.Gen)
	}
	if n := reg.Snapshot()["store.unreadable_dirs"]; n != 0 {
		t.Fatalf("store.unreadable_dirs after the takeover = %v, want 0", n)
	}
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.Get("torn")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(samples(got), samples(v)) || got.Gen != 4 || len(r2.Unreadable()) != 0 {
		t.Fatalf("taken-over volume after a reopen: gen %d, unreadable %v", got.Gen, r2.Unreadable())
	}
}
