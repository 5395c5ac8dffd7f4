package main

// The prepared volume: the per-(volume, generation, dtype) work a render
// needs that does not depend on the view. A uint8 render of a float32
// volume used to convert the whole volume on every cache miss, and
// every render marched through cells the transfer function maps to
// nothing. Both now happen once per stored generation and dtype, and
// every render of that generation — sync /render misses and the
// full-resolution pass of render jobs — reuses them.

import (
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

// prepare returns vol's prepared volume at dt. The store builds it once
// per resident generation (single-flight), charges its bytes to the RAM
// tier and drops it with the volume: on a PUT, a tune's relayout, a
// DELETE or an eviction. A build records a "resolve" stage in t when a
// conversion runs and an "accel" stage for the map; t's access-log line
// notes whether the request built the prepared volume or reused it.
func (s *server) prepare(t *obs.Trace, vol *store.Volume, dt sfcmem.Dtype) (*prepared, error) {
	val, built, err := s.store.Derived(vol, "render:"+dt.String(), func() (any, int64, error) {
		p := &prepared{grid: vol.Grid}
		var bytes int64
		if dt != vol.Grid.Dtype() {
			endResolve := t.Stage("resolve")
			p.grid = vol.Grid.Convert(dt)
			endResolve()
			bytes = p.grid.Bytes()
		}
		endAccel := t.Stage("accel")
		p.accel = sfcmem.BuildAccelAny(p.grid, renderTF)
		endAccel()
		return p, bytes + p.accel.Bytes(), nil
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
