package main

// The prepared volume: the per-(volume, generation, dtype) work a render
// needs that does not depend on the view. A uint8 render of a float32
// volume used to convert the whole volume on every cache miss, and
// every render marched through cells the transfer function maps to
// nothing. Both now happen once per stored generation and dtype, and
// every render of that generation — sync /render misses and the
// full-resolution pass of render jobs — reuses them. Filter misses,
// sync and job, share the same converted views, and render jobs' coarse
// previews share one subsample per generation, dtype and level.
//
// All three live in the store as values derived from the volume
// (store.Derived), which is what pays for layout-dependent data
// movement once per stored generation instead of once per request.

import (
	"fmt"

	"sfcmem"
	"sfcmem/internal/obs"
	"sfcmem/internal/store"
)

// renderTF is the transfer function every render runs under; prepared
// volumes hold empty-space maps built for it.
var renderTF = sfcmem.DefaultTransferFunc()

// prepared is a stored volume made ready to render at one dtype: the
// grid at that dtype (the stored grid itself when the dtypes match, else
// a converted copy) and its empty-space map under renderTF.
type prepared struct {
	grid  *sfcmem.AnyGrid
	accel *sfcmem.Accel
}

// converted returns vol's grid at dt: the stored grid itself when the
// dtypes match, else a converted copy that the store builds once per
// resident generation and dtype (single-flight), charges to the RAM
// tier and drops with the volume. A conversion records a "resolve"
// stage in t. Render and filter misses both read their dtype views
// through it, so a generation converts at most once per dtype.
func (s *server) converted(t *obs.Trace, vol *store.Volume, dt sfcmem.Dtype) (*sfcmem.AnyGrid, error) {
	if dt == vol.Grid.Dtype() {
		return vol.Grid, nil
	}
	val, _, err := s.store.Derived(vol, "grid:"+dt.String(), func() (any, int64, error) {
		endResolve := t.Stage("resolve")
		g := vol.Grid.Convert(dt)
		endResolve()
		return g, g.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return val.(*sfcmem.AnyGrid), nil
}

// prepare returns vol's prepared volume at dt. The store builds it once
// per resident generation (single-flight), charges its bytes to the RAM
// tier and drops it with the volume: on a PUT, a tune's relayout, a
// DELETE or an eviction. Its grid comes from converted; a build records
// an "accel" stage in t for the map, and t's access-log line notes
// whether the request built the prepared volume or reused it.
func (s *server) prepare(t *obs.Trace, vol *store.Volume, dt sfcmem.Dtype) (*prepared, error) {
	val, built, err := s.store.Derived(vol, "render:"+dt.String(), func() (any, int64, error) {
		g, err := s.converted(t, vol, dt)
		if err != nil {
			return nil, 0, err
		}
		endAccel := t.Stage("accel")
		p := &prepared{grid: g, accel: sfcmem.BuildAccelAny(g, renderTF)}
		endAccel()
		return p, p.accel.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	if built {
		s.preparedBuilds.Inc(0)
		t.Note("prepared", "built")
	} else {
		s.preparedHits.Inc(0)
		t.Note("prepared", "reused")
	}
	return val.(*prepared), nil
}

// coarse returns vol's subsample at dt and level (2^level per axis, in
// the volume's own layout), the grid a render job's preview pass
// raycasts. The store builds it from the converted view once per
// resident generation, dtype and level (single-flight), charges it to
// the RAM tier and drops it with the volume; a build records a
// "subsample" stage in t. The caller checks that vol.Layout parses at
// the full extents, which makes it parse at every subsampled size.
func (s *server) coarse(t *obs.Trace, vol *store.Volume, dt sfcmem.Dtype, level int) (*sfcmem.AnyGrid, error) {
	val, _, err := s.store.Derived(vol, fmt.Sprintf("coarse:%s:%d", dt, level), func() (any, int64, error) {
		g, err := s.converted(t, vol, dt)
		if err != nil {
			return nil, 0, err
		}
		endSubsample := t.Stage("subsample")
		c, err := sfcmem.SubsampleAny(g, level, func(nx, ny, nz int) sfcmem.Layout {
			l, err := sfcmem.ParseLayoutSpec(vol.Layout, nx, ny, nz)
			if err != nil {
				// Unreachable: the spec parsed at the full extents, and
				// shrinking extents never invalidates it.
				panic(fmt.Sprintf("layout spec %q invalid at %dx%dx%d: %v", vol.Layout, nx, ny, nz, err))
			}
			return l
		})
		endSubsample()
		if err != nil {
			return nil, 0, err
		}
		return c, c.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return val.(*sfcmem.AnyGrid), nil
}
