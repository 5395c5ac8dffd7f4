package filter

import (
	"context"
	"fmt"
	"math"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
)

// GaussianSeparable computes the same result as GaussianConvolve in
// three 1-D passes (x, then y, then z), reducing the per-voxel work
// from (2R+1)³ to 3(2R+1). It is exact (up to floating-point rounding),
// including at the boundary: the clipped stencil region is always an
// axis-aligned box, so the 3-D normalization factorizes into the product
// of the per-axis normalizations.
//
// The bilateral filter has no such factorization — its photometric term
// couples the axes — which is exactly why the paper treats it as the
// representative *expensive* structured-access kernel. This function is
// the baseline that shows what separability buys when it is available.
//
// Intermediate passes run in a scratch grid with src's layout; dst may
// use any layout of the same dimensions.
func GaussianSeparable(src grid.Reader, dst grid.Writer, o Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	o = o.withDefaults()
	nx, ny, nz := src.Dims()
	dx, dy, dz := dst.Dims()
	if nx != dx || ny != dy || nz != dz {
		return fmt.Errorf("filter: dimensions disagree: %dx%dx%d vs %dx%dx%d",
			nx, ny, nz, dx, dy, dz)
	}
	// 1-D Gaussian weights.
	r := o.Radius
	w := make([]float64, 2*r+1)
	inv2s2 := 1 / (2 * o.SigmaSpatial * o.SigmaSpatial)
	for d := -r; d <= r; d++ {
		w[d+r] = math.Exp(-float64(d*d) * inv2s2)
	}

	tmp1 := grid.New(core.NewArrayOrder(nx, ny, nz))
	tmp2 := grid.New(core.NewArrayOrder(nx, ny, nz))

	pass := func(in grid.Reader, out grid.Writer, axis parallel.Axis) {
		di, dj, dk := parallel.PencilStep(axis)
		pencils := parallel.PencilCount(nx, ny, nz, axis)
		// GaussianSeparable takes no context; TODO never cancels, so the
		// error is always nil.
		_, _ = parallel.RoundRobin(context.TODO(), pencils, o.Workers, func(_, p int) {
			i, j, k, length := parallel.PencilStart(nx, ny, nz, axis, p)
			for s := 0; s < length; s++ {
				var num, den float64
				for d := -r; d <= r; d++ {
					q := s + d
					if q < 0 || q >= length {
						continue
					}
					weight := w[d+r]
					num += weight * float64(in.At(i+(q-s)*di, j+(q-s)*dj, k+(q-s)*dk))
					den += weight
				}
				out.Set(i, j, k, float32(num/den))
				i, j, k = i+di, j+dj, k+dk
			}
		}, nil)
	}
	pass(src, tmp1, parallel.AxisX)
	pass(tmp1, tmp2, parallel.AxisY)
	pass(tmp2, dst, parallel.AxisZ)
	return nil
}
