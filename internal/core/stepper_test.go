package core

import "testing"

func TestStepSpecFor(t *testing.T) {
	if s := StepSpecFor(NewArrayOrder(7, 5, 3)); s.Mode != StepStride || s.Sx != 1 || s.Sy != 7 || s.Sz != 35 {
		t.Errorf("array spec = %+v", s)
	}
	// Z order's lanes are Morton's: x at bits 0,3,6; y at 1,4,7; z at 2,5,8.
	if s := StepSpecFor(NewZOrder(8, 8, 8)); s.Mode != StepMasked || s.MX != 0b001001001 || s.MY != 0b010010010 || s.MZ != 0b100100100 {
		t.Errorf("zorder spec = %+v", s)
	}
	if s := StepSpecFor(NewZTiled(20, 20, 20, 8)); s.Mode != StepBrickMorton || s.BrickMask != 7 {
		t.Errorf("ztiled spec = %+v", s)
	}
	bl, err := NewBitLayout(8, 8, 8, "xxyyzzxyz")
	if err != nil {
		t.Fatalf("NewBitLayout: %v", err)
	}
	// Lanes straight off the spec: x at bits 0,1,6; y at 2,3,7; z at 4,5,8.
	if s := StepSpecFor(bl); s.Mode != StepMasked || s.MX != 0b001000011 || s.MY != 0b010001100 || s.MZ != 0b100110000 {
		t.Errorf("bitlayout spec = %+v", s)
	}
	for _, l := range []Layout{
		NewTiled(8, 8, 8, 4), NewHilbert(8, 8, 8), NewHZOrder(8, 8, 8),
	} {
		if s := StepSpecFor(l); s.Mode != StepNone {
			t.Errorf("%s spec = %+v, want StepNone", l.Name(), s)
		}
	}
}

// TestZTiledSteppers walks every cell of volumes whose extents are not
// brick multiples, for every brick edge from 1 to 16, so +x steps cross
// brick faces and the last bricks are partial: each step must agree
// with Index.
func TestZTiledSteppers(t *testing.T) {
	for brick := 1; brick <= 16; brick *= 2 {
		for _, e := range [][3]int{{12, 9, 5}, {33, 3, 2}, {1, 4, 4}} {
			zt := NewZTiled(e[0], e[1], e[2], brick)
			for k := 0; k < e[2]; k++ {
				for j := 0; j < e[1]; j++ {
					for i := 0; i+1 < e[0]; i++ {
						if got, want := zt.StepX(zt.Index(i, j, k), i), zt.Index(i+1, j, k); got != want {
							t.Fatalf("brick %d %v: StepX at (%d,%d,%d) = %d, want %d", brick, e, i, j, k, got, want)
						}
					}
				}
			}
		}
	}
}
