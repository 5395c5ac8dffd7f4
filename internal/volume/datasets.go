package volume

import (
	"math"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
)

// MRIPhantom synthesizes an MRI-like head phantom: nested ellipsoid
// shells with distinct intensities ("scalp", "skull", "brain",
// "ventricles") plus additive noise. It stands in for the paper's 512³
// UC Davis MRI dataset in the bilateral-filter experiments: sharp
// anatomical edges for the photometric (range) term to preserve, noise
// for the filter to remove. Values are in [0,1]. Deterministic in seed.
func MRIPhantom(l core.Layout, seed uint64, noiseSigma float64) *grid.Grid[float32] {
	return MRIPhantomOf[float32](l, seed, noiseSigma)
}

// MRIPhantomOf is MRIPhantom quantized to any element type: the field
// is computed in float32 exactly as the float32 generator (same RNG
// consumption, so every dtype sees the same underlying phantom) and
// each sample is quantized to T on store. The float32 instantiation is
// bit-identical to MRIPhantom.
func MRIPhantomOf[T grid.Scalar](l core.Layout, seed uint64, noiseSigma float64) *grid.Grid[T] {
	nx, ny, nz := l.Dims()
	rng := NewRNG(seed)
	g := grid.NewOf[T](l)
	cx, cy, cz := float64(nx)/2, float64(ny)/2, float64(nz)/2
	// Shell radii as fractions of the half-extent, outermost first.
	shells := []struct {
		rx, ry, rz float64 // ellipsoid semi-axes (fractions)
		intensity  float32
	}{
		{0.95, 0.95, 0.90, 0.30}, // scalp
		{0.85, 0.85, 0.80, 0.85}, // skull (bright)
		{0.75, 0.75, 0.70, 0.55}, // brain tissue
		{0.30, 0.22, 0.25, 0.15}, // ventricles (dark)
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				x := (float64(i) - cx) / cx
				y := (float64(j) - cy) / cy
				z := (float64(k) - cz) / cz
				var v float32
				for _, s := range shells {
					d := (x/s.rx)*(x/s.rx) + (y/s.ry)*(y/s.ry) + (z/s.rz)*(z/s.rz)
					if d <= 1 {
						v = s.intensity
					}
				}
				// Mild low-frequency tissue texture inside the head.
				if v > 0 {
					v += 0.08 * (FBM(float64(i)*0.06, float64(j)*0.06, float64(k)*0.06, 3, seed) - 0.5)
				}
				v += float32(noiseSigma) * rng.Normal()
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
				g.Set(i, j, k, grid.QuantizeUnit[T](v))
			}
		}
	}
	return g
}

// CombustionPlume synthesizes a combustion-like scalar field: a hot
// turbulent plume rising from the volume floor through quiescent
// surroundings, standing in for the paper's 512³ combustion-simulation
// dataset in the volume-rendering experiments. The field has the two
// regimes the renderer cares about — large nearly-empty regions and a
// dense structured core — so transfer-function compositing and ray
// traversal behave realistically. Values are in [0,1].
func CombustionPlume(l core.Layout, seed uint64) *grid.Grid[float32] {
	return CombustionPlumeOf[float32](l, seed)
}

// CombustionPlumeOf is CombustionPlume quantized to any element type;
// see MRIPhantomOf for the quantization contract.
func CombustionPlumeOf[T grid.Scalar](l core.Layout, seed uint64) *grid.Grid[T] {
	nx, ny, nz := l.Dims()
	g := grid.NewOf[T](l)
	cx, cz := float64(nx)/2, float64(nz)/2
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			h := float64(j) / float64(ny) // height fraction (plume rises along +y)
			for i := 0; i < nx; i++ {
				// Plume axis meanders with height.
				ax := cx + 0.15*float64(nx)*math.Sin(h*4.2)
				az := cz + 0.12*float64(nz)*math.Cos(h*3.1)
				dx := (float64(i) - ax) / (0.18*float64(nx)*(0.6+1.8*h) + 1)
				dz := (float64(k) - az) / (0.18*float64(nz)*(0.6+1.8*h) + 1)
				r2 := dx*dx + dz*dz
				core := math.Exp(-r2) * (1.15 - 0.9*h) // hot core cools with height
				turb := float64(FBM(float64(i)*0.045, float64(j)*0.045, float64(k)*0.045, 4, seed))
				v := core*(0.55+0.9*(turb-0.5)) - 0.03 // floor cut: quiescent air is truly empty
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
				g.Set(i, j, k, grid.QuantizeUnit[T](float32(v)))
			}
		}
	}
	return g
}

// Constant fills a grid with a single value; the simplest regression
// input (a bilateral filter must leave it unchanged).
func Constant(l core.Layout, v float32) *grid.Grid[float32] {
	return grid.FromFunc(l, func(_, _, _ int) float32 { return v })
}

// SolidSphere fills a grid with 1 inside a centered sphere of the given
// fractional radius and 0 outside: a hard edge for edge-preservation
// tests.
func SolidSphere(l core.Layout, frac float64) *grid.Grid[float32] {
	nx, ny, nz := l.Dims()
	cx, cy, cz := float64(nx)/2, float64(ny)/2, float64(nz)/2
	r := frac * math.Min(cx, math.Min(cy, cz))
	return grid.FromFunc(l, func(i, j, k int) float32 {
		dx, dy, dz := float64(i)-cx, float64(j)-cy, float64(k)-cz
		if dx*dx+dy*dy+dz*dz <= r*r {
			return 1
		}
		return 0
	})
}

// WhiteNoise fills a grid with uniform noise in [0,1); deterministic in
// seed.
func WhiteNoise(l core.Layout, seed uint64) *grid.Grid[float32] {
	rng := NewRNG(seed)
	return grid.FromFunc(l, func(_, _, _ int) float32 { return rng.Float32() })
}
