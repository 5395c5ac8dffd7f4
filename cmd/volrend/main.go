// Command volrend renders the combustion plume with the raycasting
// volume renderer: one viewpoint or a full orbit, one layout, optional
// cache simulation, optional PPM output.
//
//	volrend -size 128 -layout zorder -view 2 -threads 8 -o frame.ppm
//	volrend -size 64 -orbit -prefix frames/view -sim ivy/32
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/render"
	"sfcmem/internal/volume"
)

func main() {
	var (
		size    = flag.Int("size", 64, "volume edge (size³ voxels)")
		layout  = flag.String("layout", "zorder", "memory layout: array, zorder, tiled, hilbert")
		img     = flag.Int("image", 256, "square image edge in pixels")
		view    = flag.Int("view", 0, "orbit viewpoint index")
		views   = flag.Int("views", 8, "number of orbit positions")
		orbit   = flag.Bool("orbit", false, "render every orbit viewpoint")
		threads = flag.Int("threads", 1, "worker count")
		tile    = flag.Int("tile", 32, "image tile edge")
		step    = flag.Float64("step", 1, "ray-march step in voxels")
		shade   = flag.Bool("shade", false, "enable gradient shading")
		ortho   = flag.Bool("ortho", false, "orthographic projection (paper §III-B contrast case)")
		skip    = flag.Bool("skip", false, "empty-space skipping (an 8³ occupancy map, built once)")
		outFile = flag.String("o", "", "write the image to this file (.ppm or .png)")
		prefix  = flag.String("prefix", "", "with -orbit: write frames as <prefix><view>.ppm")
		sim     = flag.String("sim", "", "also run the cache simulator: ivy, mic, ivy/32, ...")
		seed    = flag.Uint64("seed", 1, "plume seed")
	)
	flag.Parse()

	kind, err := core.ParseKind(*layout)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("generating %d³ combustion plume (%s layout)...\n", *size, kind)
	vol := volume.CombustionPlume(core.New(kind, *size, *size, *size), *seed)
	tf := render.DefaultTransferFunc()
	opts := render.Options{TileSize: *tile, Workers: *threads, Step: *step, Shade: *shade}
	if *skip {
		// One map serves every view of the orbit.
		opts.Accel = render.BuildAccelOf(vol, tf)
		fmt.Printf("empty-space map: %.0f%% of 8³ cells empty\n", 100*opts.Accel.EmptyFraction())
	}

	renderView := func(v int) error {
		cam := render.Orbit(v, *views, *size, *size, *size, *img, *img)
		cam.Ortho = *ortho
		start := time.Now()
		image, err := render.Render(vol, cam, tf, opts)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Printf("view %d/%d: %v (mean alpha %.3f)\n", v, *views, elapsed, image.MeanAlpha())
		path := ""
		if *orbit && *prefix != "" {
			path = fmt.Sprintf("%s%d.ppm", *prefix, v)
		} else if !*orbit && *outFile != "" {
			path = *outFile
		}
		if path != "" {
			save := image.SavePPM
			if strings.HasSuffix(path, ".png") {
				save = image.SavePNG
			}
			if err := save(path); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
		if *sim != "" {
			platform, err := cache.ParsePlatform(*sim)
			if err != nil {
				return err
			}
			sys := cache.NewSystem(platform, *threads)
			viewsR := make([]grid.Reader, *threads)
			for w := 0; w < *threads; w++ {
				viewsR[w] = grid.NewTraced(vol, 0, sys.Front(w))
			}
			if _, err := render.RenderViews(viewsR, cam, tf, opts); err != nil {
				return err
			}
			fmt.Print(sys.Report())
		}
		return nil
	}

	if *orbit {
		for v := 0; v < *views; v++ {
			if err := renderView(v); err != nil {
				fatal(err)
			}
		}
	} else if err := renderView(*view); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "volrend:", err)
	os.Exit(1)
}
