package render

import (
	"fmt"
	"sort"
)

// RGBA is a straight-alpha color sample.
type RGBA struct {
	R, G, B, A float32
}

// ControlPoint anchors the transfer function at a scalar value.
type ControlPoint struct {
	Value float64 // scalar position in [0,1]
	Color RGBA
}

// TransferFunc maps scalar field values to color and opacity by
// piecewise-linear interpolation between control points. For speed the
// function is baked into a fixed-resolution lookup table at
// construction, so per-sample evaluation is one index computation.
type TransferFunc struct {
	lut []RGBA
}

// tfLUTSize is the baked table resolution.
const tfLUTSize = 1024

// NewTransferFunc builds a transfer function from control points, which
// are sorted by value; values outside the first/last point clamp. At
// least one point is required.
func NewTransferFunc(points []ControlPoint) (*TransferFunc, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("render: transfer function needs at least one control point")
	}
	pts := append([]ControlPoint(nil), points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Value < pts[j].Value })
	tf := &TransferFunc{lut: make([]RGBA, tfLUTSize)}
	for i := range tf.lut {
		v := float64(i) / (tfLUTSize - 1)
		tf.lut[i] = evalPiecewise(pts, v)
	}
	return tf, nil
}

func evalPiecewise(pts []ControlPoint, v float64) RGBA {
	if v <= pts[0].Value {
		return pts[0].Color
	}
	last := pts[len(pts)-1]
	if v >= last.Value {
		return last.Color
	}
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].Value > v })
	a, b := pts[hi-1], pts[hi]
	span := b.Value - a.Value
	if span == 0 {
		return a.Color
	}
	t := float32((v - a.Value) / span)
	return RGBA{
		R: a.Color.R + (b.Color.R-a.Color.R)*t,
		G: a.Color.G + (b.Color.G-a.Color.G)*t,
		B: a.Color.B + (b.Color.B-a.Color.B)*t,
		A: a.Color.A + (b.Color.A-a.Color.A)*t,
	}
}

// Eval maps a scalar value (clamped to [0,1]) through the baked table.
// NaN maps like 0, so a NaN sample in a volume is treated as empty.
func (tf *TransferFunc) Eval(v float32) RGBA {
	if !(v >= 0) {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return tf.lut[int(v*(tfLUTSize-1))]
}

// MinOpaqueValue returns the smallest scalar value whose transfer-
// function opacity is nonzero, i.e. the threshold below which samples
// contribute nothing. Macrocells whose max value is strictly below this
// can be skipped entirely (see Accel). Returns a value > 1 if the whole
// function is transparent.
func (tf *TransferFunc) MinOpaqueValue() float32 {
	for i, c := range tf.lut {
		if c.A > 0 {
			return float32(i) / (tfLUTSize - 1)
		}
	}
	return 2
}

// DefaultTransferFunc is the flame-like map used for the combustion
// plume: transparent below a threshold (empty air costs nothing), then
// smoke-grey, orange, and white-hot with rising opacity.
func DefaultTransferFunc() *TransferFunc {
	tf, err := NewTransferFunc([]ControlPoint{
		{Value: 0.00, Color: RGBA{0, 0, 0, 0}},
		{Value: 0.05, Color: RGBA{0, 0, 0, 0}},
		{Value: 0.20, Color: RGBA{0.35, 0.30, 0.30, 0.02}},
		{Value: 0.45, Color: RGBA{0.9, 0.45, 0.10, 0.15}},
		{Value: 0.70, Color: RGBA{1.0, 0.75, 0.25, 0.45}},
		{Value: 1.00, Color: RGBA{1.0, 1.0, 0.9, 0.85}},
	})
	if err != nil {
		panic(err) // static points; cannot fail
	}
	return tf
}
