package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sfcmem/internal/volume"
)

// statTree stats every file and directory under dir, by path.
func statTree(t *testing.T, dir string) map[string]fs.FileInfo {
	t.Helper()
	out := make(map[string]fs.FileInfo)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		fi, err := os.Lstat(path)
		if err != nil {
			return err
		}
		out[path] = fi
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPutAndDeleteNeverReplaceAFile: a Put, a re-Put and a Delete
// create files and remove them, but never put a new file in an old
// one's place (a rename over it) nor rewrite one in place: every path
// that survives an operation is the same file with the same bytes.
// The rename over an existing file is what makes ext4 flush before
// the rename returns.
func TestPutAndDeleteNeverReplaceAFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{BrickBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testVolume(t, "other", 9)); err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"Put", func() error { return s.Put(testVolume(t, "a", 1)) }},
		{"re-Put", func() error { return s.Put(testVolume(t, "a", 2)) }},
		{"Delete", func() error { return s.Delete("a") }},
		{"Put after Delete", func() error { return s.Put(testVolume(t, "a", 3)) }},
	} {
		before, digests := statTree(t, dir), fileDigests(t, dir)
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		after, afterDigests := statTree(t, dir), fileDigests(t, dir)
		for path, fi := range before {
			now, ok := after[path]
			if !ok {
				continue
			}
			if !os.SameFile(fi, now) {
				t.Errorf("%s replaced %s with another file", op.name, path)
			}
			rel, _ := filepath.Rel(dir, path)
			if d := digests[filepath.ToSlash(rel)]; d != "" && afterDigests[filepath.ToSlash(rel)] != d {
				t.Errorf("%s rewrote %s in place", op.name, path)
			}
		}
	}
}

// manifestFor builds the manifest that commits v's bricks as
// generation gen.
func manifestFor(v *Volume, gen uint64, brickElems int, infos []volume.BrickInfo) *volume.Manifest {
	nx, ny, nz := v.Grid.Dims()
	return &volume.Manifest{
		Version: volume.ManifestVersion, Name: v.Name, Dataset: v.Dataset, Layout: v.Layout,
		Dtype: "float32", Nx: nx, Ny: ny, Nz: nz, Elems: int64(len(samples(v))),
		BrickElems: brickElems, Gen: gen, Bricks: infos,
	}
}

// Stages of a hand-written generation, in the order a Put writes them.
const (
	stageBricks    = iota // bricks only
	stageTmp              // bricks plus manifest.json.tmp
	stageCommitted        // bricks plus manifest.json
)

// writeStage writes v into dir (a generation's or, for the flat
// layout, the volume's own directory) as generation gen, up to stage.
// It returns the manifest it wrote, or would have.
func writeStage(t *testing.T, dir string, v *Volume, gen uint64, stage int) *volume.Manifest {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	infos, err := volume.WriteBricks(dir, samples(v), 128) // four bricks
	if err != nil {
		t.Fatal(err)
	}
	m := manifestFor(v, gen, 128, infos)
	writeManifest(t, dir, m, stage)
	return m
}

// writeManifest writes m into dir as manifest.json.tmp (stageTmp) or
// manifest.json (stageCommitted); stageBricks writes nothing.
func writeManifest(t *testing.T, dir string, m *volume.Manifest, stage int) {
	t.Helper()
	if stage == stageBricks {
		return
	}
	b, err := volume.EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	name := volume.ManifestFile + ".tmp"
	if stage == stageCommitted {
		name = volume.ManifestFile
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// tombstone is the manifest Delete commits for generation gen of name.
func tombstone(name string, gen uint64) *volume.Manifest {
	return &volume.Manifest{
		Version: volume.ManifestVersion, Name: name, Dtype: "float32",
		Nx: 1, Ny: 1, Nz: 1, Elems: 1, Gen: gen, Deleted: true,
	}
}

// TestReopenAfterInterruptedWrite builds on disk each state a Put or
// Delete killed part way can leave, and the two layouts older versions
// wrote, then reopens the data dir: twice, then after a Delete of a
// live volume, then after a Put. Every reopen must serve the volume
// wholly at the old or wholly at the new generation (or hold its
// tombstone), sweep what no manifest commits, and never let a
// generation go backwards: the Put takes a generation above every one
// the state held on disk.
func TestReopenAfterInterruptedWrite(t *testing.T) {
	const name = "a"
	old := func(t *testing.T, dir string) {
		s, err := Open(dir, Options{BrickBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(testVolume(t, name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		build func(t *testing.T, dir, vdir string)
		// wantGen is the generation the reopened store serves (0: the
		// name is deleted), holding testVolume(name, wantSeed).
		wantGen  uint64
		wantSeed int
		floor    uint64 // highest generation the state held
	}{
		{"put killed after the bricks", func(t *testing.T, dir, vdir string) {
			old(t, dir)
			writeStage(t, filepath.Join(vdir, genDir(2)), testVolume(t, name, 2), 2, stageBricks)
		}, 1, 1, 2},
		{"put killed before the manifest rename", func(t *testing.T, dir, vdir string) {
			old(t, dir)
			writeStage(t, filepath.Join(vdir, genDir(2)), testVolume(t, name, 2), 2, stageTmp)
		}, 1, 1, 2},
		{"put killed after the commit, old generation present", func(t *testing.T, dir, vdir string) {
			old(t, dir)
			writeStage(t, filepath.Join(vdir, genDir(2)), testVolume(t, name, 2), 2, stageCommitted)
		}, 2, 2, 2},
		{"power loss tore the newest manifest", func(t *testing.T, dir, vdir string) {
			old(t, dir)
			gdir := filepath.Join(vdir, genDir(2))
			writeStage(t, gdir, testVolume(t, name, 2), 2, stageCommitted)
			if err := os.Truncate(filepath.Join(gdir, volume.ManifestFile), 0); err != nil {
				t.Fatal(err)
			}
		}, 1, 1, 2},
		{"delete killed before the tombstone rename", func(t *testing.T, dir, vdir string) {
			old(t, dir)
			writeManifest(t, filepath.Join(vdir, genDir(1)+deletedSuffix), tombstone(name, 1), stageTmp)
		}, 1, 1, 1},
		{"delete killed after the tombstone commit", func(t *testing.T, dir, vdir string) {
			old(t, dir)
			writeManifest(t, filepath.Join(vdir, genDir(1)+deletedSuffix), tombstone(name, 1), stageCommitted)
		}, 0, 0, 1},
		{"legacy: generation directories, top-level manifest", func(t *testing.T, dir, vdir string) {
			m := writeStage(t, filepath.Join(vdir, genDir(3)), testVolume(t, name, 3), 3, stageBricks)
			writeManifest(t, vdir, m, stageCommitted)
			writeManifest(t, vdir, m, stageTmp) // a killed re-Put's leftover
		}, 3, 3, 3},
		{"legacy: flat bricks beside the manifest", func(t *testing.T, dir, vdir string) {
			writeStage(t, vdir, testVolume(t, name, 3), 3, stageCommitted)
		}, 3, 3, 3},
		{"legacy: top-level tombstone", func(t *testing.T, dir, vdir string) {
			writeManifest(t, vdir, tombstone(name, 3), stageCommitted)
		}, 0, 0, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			vdir := filepath.Join(dir, dirFor(name))
			c.build(t, dir, vdir)
			check := func(r *Store, wantGen uint64, wantSeed int) {
				t.Helper()
				if len(r.Unreadable()) != 0 {
					t.Fatalf("unreadable dirs: %v", r.Unreadable())
				}
				if wantGen == 0 {
					if _, ok := r.Stat(name); ok {
						t.Fatal("tombstoned volume visible")
					}
					if _, err := r.Get(name); !errors.Is(err, ErrNotFound) {
						t.Fatalf("Get of the tombstoned volume: %v", err)
					}
				} else {
					got, err := r.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					if got.Gen != wantGen || !reflect.DeepEqual(samples(got), samples(testVolume(t, name, wantSeed))) {
						t.Fatalf("serves generation %d, want wholly generation %d", got.Gen, wantGen)
					}
				}
				// What stays: one record directory holding a manifest,
				// no temp file, no top-level manifest.
				var committed []string
				err := filepath.WalkDir(vdir, func(path string, d fs.DirEntry, err error) error {
					if err != nil {
						return err
					}
					rel, _ := filepath.Rel(vdir, path)
					switch {
					case strings.HasSuffix(path, ".tmp"), rel == volume.ManifestFile:
						t.Errorf("reopen left %s", rel)
					case d.Name() == volume.ManifestFile:
						committed = append(committed, filepath.Dir(rel))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(committed) != 1 {
					t.Fatalf("record directories holding a manifest: %v, want one", committed)
				}
			}
			for i := 0; i < 2; i++ {
				r, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("reopen %d: %v", i+1, err)
				}
				check(r, c.wantGen, c.wantSeed)
			}
			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if c.wantGen != 0 {
				// A Delete right after the reopen keeps the floor too.
				if err := r.Delete(name); err != nil {
					t.Fatal(err)
				}
				if r, err = Open(dir, Options{}); err != nil {
					t.Fatal(err)
				}
				check(r, 0, 0)
			}
			v := testVolume(t, name, 7)
			if err := r.Put(v); err != nil {
				t.Fatal(err)
			}
			if v.Gen <= c.floor {
				t.Fatalf("Put after the reopen took generation %d, not above the %d on disk", v.Gen, c.floor)
			}
			r, err = Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(r, v.Gen, 7)
		})
	}
}

// FuzzOpenManifest fuzzes the bytes of a committed generation's
// manifest, g2/manifest.json, beside generation 1, which is still on
// disk (the state a Put leaves just before it removes the old
// generation). Open must not panic; a manifest that fails validation
// is never served, so generation 1 stands; and whatever is served, the
// next Put of the name takes a generation above g2.
func FuzzOpenManifest(f *testing.F) {
	v2 := testVolume(f, "a", 2)
	infos, err := volume.WriteBricks(f.TempDir(), samples(v2), 512)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := volume.EncodeManifest(manifestFor(v2, 2, 512, infos))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed) // generation 2 as a Put commits it
	f.Add([]byte{})
	f.Add([]byte(`{"version":1,"name":"a","dtype":"float32","nx":1,"ny":1,"nz":1,"elems":1,"gen":2,"deleted":true}`))
	f.Add([]byte(`{"version":1,"name":"a","layout":"zorder","dtype":"float32","nx":8,"ny":8,"nz":8,"elems":512,"brick_elems":512,"gen":2,"bricks":[{"bytes":2048,"sha256":"00"}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(testVolume(t, "a", 1)); err != nil {
			t.Fatal(err)
		}
		gdir := filepath.Join(dir, dirFor("a"), genDir(2))
		if err := os.MkdirAll(gdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := volume.WriteBricks(gdir, samples(v2), 512); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(gdir, volume.ManifestFile), b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, decodeErr := volume.DecodeManifest(b)

		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if decodeErr != nil || m.Gen != 2 || m.Deleted {
			// Not a committed live generation 2: generation 1 stands.
			got, err := r.Get("a")
			if err != nil {
				t.Fatalf("generation 1 not served beside a manifest that does not commit: %v", err)
			}
			if got.Gen != 1 || !reflect.DeepEqual(samples(got), samples(testVolume(t, "a", 1))) {
				t.Fatalf("served generation %d, want generation 1", got.Gen)
			}
		} else {
			for _, in := range r.List() {
				if in.Name == m.Name && in.Gen != 2 {
					t.Fatalf("%q listed at generation %d, its committed manifest names 2", in.Name, in.Gen)
				}
			}
			if got, err := r.Get(m.Name); err == nil && got.Gen != 2 {
				t.Fatalf("served generation %d of %q, want 2", got.Gen, m.Name)
			}
		}
		v := testVolume(t, "a", 3)
		if err := r.Put(v); err != nil {
			t.Fatal(err)
		}
		if v.Gen <= 2 {
			t.Fatalf("Put after the reopen took generation %d, not above the g2 on disk", v.Gen)
		}
	})
}
