package render

import "math"

// Camera is a pinhole camera, perspective by default. With Ortho set it
// becomes orthographic: every ray shares the forward direction and only
// the origin varies. The paper (§III-B) contrasts the two: under
// orthographic projection all rays traverse the volume identically,
// while perspective gives each ray a distinct (δx, δy, δz) slope — the
// "semi-structured" access pattern the experiments exercise.
type Camera struct {
	Eye    Vec3    // camera position, in volume index coordinates
	Center Vec3    // look-at point
	Up     Vec3    // approximate up direction
	FOVY   float64 // vertical field of view, degrees (perspective only)
	Width  int     // image width, pixels
	Height int     // image height, pixels
	// Ortho switches to orthographic projection; OrthoHeight is the
	// world-space height of the image plane (0 defaults to the eye-
	// center distance, which roughly matches the perspective footprint).
	Ortho       bool
	OrthoHeight float64
}

// basis returns the orthonormal camera frame: forward, right, trueUp.
func (c Camera) basis() (fwd, right, up Vec3) {
	fwd = c.Center.Sub(c.Eye).Normalize()
	right = fwd.Cross(c.Up).Normalize()
	up = right.Cross(fwd)
	return fwd, right, up
}

// rays holds what every primary ray of one frame shares — the camera
// basis, the aspect ratio and the image-plane scale — so a frame
// computes them once rather than once per pixel.
type rays struct {
	c              Camera
	fwd, right, up Vec3
	aspect         float64
	// scale is the orthographic half-height, or tan(fov/2) in
	// perspective.
	scale float64
}

func (c Camera) rays() rays {
	r := rays{c: c, aspect: float64(c.Width) / float64(c.Height)}
	r.fwd, r.right, r.up = c.basis()
	if c.Ortho {
		r.scale = c.OrthoHeight / 2
		if r.scale <= 0 {
			r.scale = c.Center.Sub(c.Eye).Len() / 2
		}
	} else {
		r.scale = math.Tan(c.FOVY * math.Pi / 360)
	}
	return r
}

// Ray returns the origin and normalized direction of the primary ray
// through pixel (px, py); pixel centers are offset by 0.5.
func (c Camera) Ray(px, py int) (origin, dir Vec3) {
	r := c.rays()
	return r.at(px, py)
}

// at is Camera.Ray with the frame's shared terms precomputed; the
// per-pixel arithmetic is Ray's, expression for expression.
func (r *rays) at(px, py int) (origin, dir Vec3) {
	c := &r.c
	// NDC in [-1,1], y up.
	nu := 2*(float64(px)+0.5)/float64(c.Width) - 1
	nv := 1 - 2*(float64(py)+0.5)/float64(c.Height)
	if c.Ortho {
		hh := r.scale
		origin = c.Eye.Add(r.right.Scale(nu * hh * r.aspect)).Add(r.up.Scale(nv * hh))
		return origin, r.fwd
	}
	h := r.scale
	dir = r.fwd.Add(r.right.Scale(nu * h * r.aspect)).Add(r.up.Scale(nv * h)).Normalize()
	return c.Eye, dir
}

// Orbit returns the camera for orbit position view of nViews around an
// nx×ny×nz volume, reproducing the paper's §IV-B4 viewpoint sweep: the
// eye circles the volume center in the x-z plane (up = +y) at a radius
// of 1.8× the largest half-extent. At view 0 the rays run parallel to
// the +x axis — array order's best case; at view nViews/2 they run
// parallel to -x; oblique views are the against-the-grain cases.
func Orbit(view, nViews int, nx, ny, nz, imgW, imgH int) Camera {
	if nViews <= 0 {
		panic("render: nViews must be positive")
	}
	center := Vec3{float64(nx-1) / 2, float64(ny-1) / 2, float64(nz-1) / 2}
	half := math.Max(float64(nx), math.Max(float64(ny), float64(nz))) / 2
	radius := 1.8 * half * math.Sqrt(3) // outside the bounding sphere
	theta := 2 * math.Pi * float64(view) / float64(nViews)
	eye := center.Add(Vec3{-radius * math.Cos(theta), 0, radius * math.Sin(theta)})
	return Camera{
		Eye:    eye,
		Center: center,
		Up:     Vec3{0, 1, 0},
		FOVY:   40,
		Width:  imgW,
		Height: imgH,
	}
}

// intersectBox intersects the ray origin+t*dir with the axis-aligned
// box [lo, hi] using the slab method, returning the parametric entry
// and exit distances and whether the ray hits at all. tmin is clamped
// to zero (no samples behind the eye).
func intersectBox(origin, dir, lo, hi Vec3) (tmin, tmax float64, hit bool) {
	tmin, tmax = 0, math.Inf(1)
	o := [3]float64{origin.X, origin.Y, origin.Z}
	d := [3]float64{dir.X, dir.Y, dir.Z}
	l := [3]float64{lo.X, lo.Y, lo.Z}
	h := [3]float64{hi.X, hi.Y, hi.Z}
	for a := 0; a < 3; a++ {
		if d[a] == 0 {
			if o[a] < l[a] || o[a] > h[a] {
				return 0, 0, false
			}
			continue
		}
		t0 := (l[a] - o[a]) / d[a]
		t1 := (h[a] - o[a]) / d[a]
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tmin {
			tmin = t0
		}
		if t1 < tmax {
			tmax = t1
		}
		if tmin > tmax {
			return 0, 0, false
		}
	}
	return tmin, tmax, true
}
