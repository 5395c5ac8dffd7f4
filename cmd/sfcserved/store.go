package main

import (
	"fmt"
	"strconv"
	"strings"

	"sfcmem"
	"sfcmem/internal/store"
)

// Volume storage lives in internal/store behind the pluggable
// store.VolumeStore interface (RAM-only via store.NewMemory, tiered
// RAM-over-bricks via store.Open when -data-dir is set). This file
// keeps only the serving-side volume construction: synthetic datasets
// and the -volume spec grammar.

// datasetSeed fixes the synthetic datasets so repeated service starts
// (and the CI smoke job) render identical frames.
const datasetSeed = 1

// maxCreateVoxels bounds a synthesized volume's buffer, padding
// included: the elements of the largest cube a request may name, 512³.
const maxCreateVoxels = 512 * 512 * 512

// synthesizeVolume builds a named volume from a dataset name, cube edge,
// layout name and dtype name — the shared backend of the -volume flag
// and the POST /volumes handler. An empty dtype means float32.
func synthesizeVolume(name, dataset string, size int, layout, dtype string) (*store.Volume, error) {
	if name == "" {
		return nil, fmt.Errorf("volume name must be non-empty")
	}
	if size < 2 || size > 512 {
		return nil, fmt.Errorf("volume size %d out of range [2,512]", size)
	}
	l, err := sfcmem.ParseLayoutSpec(layout, size, size, size)
	if err != nil {
		return nil, err
	}
	if dtype == "" {
		dtype = "float32"
	}
	dt, err := sfcmem.ParseDtype(dtype)
	if err != nil {
		return nil, err
	}
	if err := checkBufferBytes(l, dt, maxCreateVoxels*int64(dt.Size())); err != nil {
		return nil, err
	}
	var g *sfcmem.AnyGrid
	switch dataset {
	case "plume":
		g = sfcmem.CombustionPlumeAny(dt, l, datasetSeed)
	case "phantom":
		g = sfcmem.MRIPhantomAny(dt, l, datasetSeed, 0.02)
	default:
		return nil, fmt.Errorf("unknown dataset %q (want plume or phantom)", dataset)
	}
	// Store the layout's canonical name, not the request's spelling:
	// aliases ("z") normalize, and a bit spec persists with exactly the
	// string ParseLayoutSpec reconstructs from on reload.
	return &store.Volume{Name: name, Dataset: dataset, Layout: l.Name(), Grid: g}, nil
}

// parseVolumeSpec parses one -volume flag value of the form
// name=dataset:size:layout[:dtype], e.g. demo=plume:64:zorder or
// demo8=plume:64:zorder:uint8. The dtype defaults to float32. A
// parameterized bit-interleave layout carries its own colon
// ("bit:xyzxyzxyz"), so the layout field spans two parts when it starts
// with "bit": demo=plume:64:bit:xyzxyzxyzxyzxyzxyz:uint8.
func parseVolumeSpec(spec string) (*store.Volume, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return nil, fmt.Errorf("volume spec %q: want name=dataset:size:layout[:dtype]", spec)
	}
	parts := strings.Split(rest, ":")
	if len(parts) >= 4 && strings.EqualFold(parts[2], "bit") {
		parts = append(parts[:2], append([]string{parts[2] + ":" + parts[3]}, parts[4:]...)...)
	}
	if len(parts) != 3 && len(parts) != 4 {
		return nil, fmt.Errorf("volume spec %q: want name=dataset:size:layout[:dtype]", spec)
	}
	size, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("volume spec %q: bad size %q", spec, parts[1])
	}
	dtype := ""
	if len(parts) == 4 {
		dtype = parts[3]
	}
	v, err := synthesizeVolume(name, parts[0], size, parts[2], dtype)
	if err != nil {
		return nil, fmt.Errorf("volume spec %q: %w", spec, err)
	}
	return v, nil
}
