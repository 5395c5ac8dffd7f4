// Cachestudy: drive the cache simulator directly to see where the
// Z-order layout's advantage comes from, layer by layer.
//
// Sweeps the bilateral filter's stencil radius over every layout in the
// against-the-grain configuration (pz pencils, zyx order) and prints the
// simulated miss rates and the paper counter per level — the "memory
// system utilization" view the paper reads from PAPI. The replay is the
// paper's per-tap model: every stencil tap is a simulated read.
//
//	go run ./examples/cachestudy [-size 48] [-platform ivy/32]
package main

import (
	"flag"
	"fmt"
	"log"

	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
	"sfcmem/internal/volume"
)

func main() {
	size := flag.Int("size", 48, "volume edge")
	plat := flag.String("platform", "ivy/32", "simulated platform (ivy, mic, with /N scaling)")
	threads := flag.Int("threads", 4, "simulated threads")
	flag.Parse()
	n := *size

	platform, err := cache.ParsePlatform(*plat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform %s, %d simulated threads, %d³ volume, pz pencils, zyx order\n\n",
		platform.Name, *threads, n)
	fmt.Printf("%-8s %-8s %12s %12s %12s %14s\n",
		"layout", "stencil", "L1 miss", "L2 miss", "LLC miss", "paper metric")

	base := volume.MRIPhantom(core.NewArrayOrder(n, n, n), 1, 0.05)
	for _, radius := range []int{1, 2, 3} {
		for _, kind := range core.Kinds() {
			src, err := base.Relayout(core.New(kind, n, n, n))
			if err != nil {
				log.Fatal(err)
			}
			dst := grid.New(core.New(kind, n, n, n))
			sys := cache.NewSystem(platform, *threads)
			srcs := make([]grid.Reader, *threads)
			dsts := make([]grid.Writer, *threads)
			for w := 0; w < *threads; w++ {
				srcs[w] = grid.NewTraced(src, 0, sys.Front(w))
				dsts[w] = grid.NewTraced(dst, 1<<40, sys.Front(w))
			}
			opts := filter.Options{
				Radius:  radius,
				Axis:    parallel.AxisZ,
				Order:   filter.ZYX,
				Workers: *threads,
				// The per-tap model; the row-cached flat path reads
				// each sample about three times, whatever the order.
				NoFastPath: true,
			}
			if err := filter.ApplyViews(srcs, dsts, opts); err != nil {
				log.Fatal(err)
			}
			rep := sys.Report()
			llc := "-"
			if rep.HasShared {
				llc = fmt.Sprintf("%11.2f%%", 100*rep.Shared.MissRate())
			}
			fmt.Printf("%-8s %dx%dx%d %11.2f%% %11.2f%% %12s %14d\n",
				kind,
				2*radius+1, 2*radius+1, 2*radius+1,
				100*rep.PrivateTotal[0].MissRate(),
				100*rep.PrivateTotal[1].MissRate(),
				llc,
				rep.PaperMetric())
		}
		fmt.Println()
	}
}
