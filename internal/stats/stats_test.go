package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestScaledRelDiffPaperExamples(t *testing.T) {
	// §IV-B2: 0.1 ≈ 10% difference, 1.0 ≈ 100%, 10.0 ≈ 1000%.
	if d := ScaledRelDiff(1.1, 1.0); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("ds(1.1,1.0)=%v", d)
	}
	if d := ScaledRelDiff(2, 1); d != 1 {
		t.Errorf("ds(2,1)=%v", d)
	}
	if d := ScaledRelDiff(11, 1); d != 10 {
		t.Errorf("ds(11,1)=%v", d)
	}
	// Negative when array order is faster.
	if d := ScaledRelDiff(0.9, 1.0); d >= 0 {
		t.Errorf("ds(0.9,1.0)=%v, want negative", d)
	}
	if !math.IsNaN(ScaledRelDiff(1, 0)) {
		t.Error("ds with z=0 should be NaN")
	}
}

func TestScaledRelDiffSignProperty(t *testing.T) {
	f := func(a, z float64) bool {
		if z <= 0 || a <= 0 || math.IsInf(a, 0) || math.IsInf(z, 0) {
			return true
		}
		d := ScaledRelDiff(a, z)
		switch {
		case a > z:
			return d > 0
		case a < z:
			return d < 0
		default:
			return d == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", []string{"r1 px xyz", "r5 pz zyx"}, []string{"2", "4"})
	tb.Set(0, 0, -0.02)
	tb.Set(0, 1, 0.30)
	tb.Set(1, 0, 2.23)
	// (1,1) left NaN.
	out := tb.String()
	for _, want := range []string{"Fig X", "r1 px xyz", "r5 pz zyx", "-0.02", "0.30", "2.23"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// NaN renders as "-".
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(strings.TrimRight(last, " "), "-") {
		t.Errorf("NaN cell not rendered as '-': %q", last)
	}
}

func TestTableAtSet(t *testing.T) {
	tb := NewTable("", []string{"a"}, []string{"c1", "c2"})
	if !math.IsNaN(tb.At(0, 1)) {
		t.Error("fresh cell should be NaN")
	}
	tb.Set(0, 1, 7)
	if tb.At(0, 1) != 7 {
		t.Errorf("At=%v", tb.At(0, 1))
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", []string{"row1"}, []string{"c1", "c2"})
	tb.Set(0, 0, 1.5)
	csv := tb.CSV()
	want := "row,c1,c2\nrow1,1.5,\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestRenderSeries(t *testing.T) {
	a := Series{Name: "a-order", Labels: []string{"0", "1"}, Values: []float64{1.5, 6.2}}
	z := Series{Name: "z-order", Labels: []string{"0", "1"}, Values: []float64{1.6}}
	out := RenderSeries("Fig 4", a, z)
	for _, want := range []string{"Fig 4", "a-order", "z-order", "1.5", "6.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("series output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "-") {
		t.Error("missing value not rendered as '-'")
	}
	if got := RenderSeries("empty"); got != "empty\n" {
		t.Errorf("empty render %q", got)
	}
}

func TestTableCustomFormat(t *testing.T) {
	tb := NewTable("", []string{"r"}, []string{"c"})
	tb.Format = "%10.4f"
	tb.Set(0, 0, 1.23456)
	if !strings.Contains(tb.String(), "1.2346") {
		t.Errorf("custom format ignored: %s", tb.String())
	}
}

// TestTableGoldenNoOverflow pins the exact rendering for values that fit
// the default "%8.2f" verb — the case the old sizing handled — so the
// width fix provably changes nothing here.
func TestTableGoldenNoOverflow(t *testing.T) {
	tb := NewTable("Fig X", []string{"r1", "row-2"}, []string{"2", "4"})
	tb.Set(0, 0, -0.02)
	tb.Set(0, 1, 0.30)
	tb.Set(1, 0, 2.23)
	want := "Fig X\n" +
		"             2        4\n" +
		"r1       -0.02     0.30\n" +
		"row-2     2.23        -\n"
	if got := tb.String(); got != want {
		t.Errorf("rendered table:\n%q\nwant:\n%q", got, want)
	}
}

// TestTableGoldenOverflow pins the rendering when a cell overflows the
// verb's minimum width. The old sizing took the column width from
// fmt.Sprintf(format, -1.0) (8 for "%8.2f"), so an 11-char cell like
// 12345678.25 pushed every later column out of alignment and left the
// headers sitting over the wrong columns.
func TestTableGoldenOverflow(t *testing.T) {
	tb := NewTable("", []string{"a", "bb"}, []string{"1", "2"})
	tb.Set(0, 0, 12345678.25)
	tb.Set(0, 1, 1.5)
	tb.Set(1, 0, 2.25)
	tb.Set(1, 1, 3)
	want := "             1           2\n" +
		"a  12345678.25        1.50\n" +
		"bb        2.25        3.00\n"
	if got := tb.String(); got != want {
		t.Errorf("rendered table:\n%q\nwant:\n%q", got, want)
	}
}

// TestTableWideHeader checks headers wider than any cell also size the
// column instead of being sheared off the grid.
func TestTableWideHeader(t *testing.T) {
	tb := NewTable("", []string{"r"}, []string{"a-very-wide-col", "2"})
	tb.Set(0, 0, 1)
	tb.Set(0, 1, 2)
	want := "  a-very-wide-col               2\n" +
		"r            1.00            2.00\n"
	if got := tb.String(); got != want {
		t.Errorf("rendered table:\n%q\nwant:\n%q", got, want)
	}
}
