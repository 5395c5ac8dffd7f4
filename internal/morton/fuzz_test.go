package morton

import "testing"

// FuzzStepRoundTrip drives IncMask with arbitrary codes over arbitrary
// disjoint axis lanes and checks it against the deposit/extract model
// of an interleaved index: the step rewrites only the stepped lane,
// whose coordinate goes up by exactly one, so
//
//	IncMask(c, m) == c&^m | Deposit(Extract(c, m)+1, m)
//
// (Deposit drops the carry out of the top, so past the lane's largest
// coordinate the lane wraps to zero instead of spilling into another).
// Stepping one lane leaves every other lane's coordinate as it was.
//
// The Morton lanes (XMask, YMask, ZMask) seed the corpus; any three
// disjoint masks describe some core.BitLayout, and the masked carry
// must stay inside its lane for all of them.
func FuzzStepRoundTrip(f *testing.F) {
	f.Add(uint64(0), XMask, YMask, ZMask)
	f.Add(Encode3(1, 1, 1), XMask, YMask, ZMask)
	f.Add(Encode3(Max3, Max3, Max3), XMask, YMask, ZMask)
	f.Add(Encode3(7, 0, 15), XMask, YMask, ZMask)    // x lane saturated below bit 3
	f.Add(Encode3(0, 1<<20, 0), XMask, YMask, ZMask) // single high y bit
	f.Add(XMask, XMask, YMask, ZMask)                // all-ones x lane
	f.Add(uint64(0b101101), uint64(0b000011), uint64(0b001100), uint64(0b110000))
	f.Add(^uint64(0), uint64(1)<<63, uint64(0xff), uint64(0xff00))
	f.Fuzz(func(t *testing.T, code, mx, my, mz uint64) {
		// Make the lanes disjoint, x taking precedence.
		my &^= mx
		mz &^= mx | my
		lanes := [3]uint64{mx, my, mz}
		for n, m := range lanes {
			up := IncMask(code, m)
			if want := code&^m | Deposit(Extract(code, m)+1, m); up != want {
				t.Fatalf("IncMask(%#x, %#x) = %#x, want %#x", code, m, up, want)
			}
			for o, other := range lanes {
				if o != n && Extract(up, other) != Extract(code, other) {
					t.Fatalf("IncMask(%#x, %#x) moved lane %#x", code, m, other)
				}
			}
		}
	})
}
