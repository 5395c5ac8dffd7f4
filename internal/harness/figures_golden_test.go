package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// goldenFiguresPath pins the deterministic numbers of the micro-config
// figures. Every value in it repeats across runs under -race; the
// wall-clock tables and the multi-thread MIC and renderer counters do
// not, so they are left out.
const goldenFiguresPath = "testdata/figures_micro.golden"

// goldenFigures renders the pinned numbers as text: every cell of
// Fig 1a/1b, 7a/7b, 8a and 10a/10b as CSV, the Fig 8b tuner lines, and
// Fig 2's raw simulated IvyBridge counter per (row, threads, layout).
func goldenFigures(t *testing.T) string {
	t.Helper()
	cfg := microConfig()
	var b strings.Builder
	for _, n := range []int{1, 7, 8, 10} {
		res, err := FigureObs(n, cfg, nil, nil)
		if err != nil {
			t.Fatalf("fig %d: %v", n, err)
		}
		for i, tab := range res.Tables {
			fmt.Fprintf(&b, "== %s_%d\n%s", res.Name, i, tab.CSV())
		}
		if n == 8 {
			_, tuner, ok := strings.Cut(res.Text, "Fig 8b")
			if !ok {
				t.Fatalf("fig 8 text has no Fig 8b section:\n%s", res.Text)
			}
			fmt.Fprintf(&b, "== fig8b\nFig 8b%s", tuner)
		}
	}
	ins := NewInstruments(cfg)
	if _, err := FigureObs(2, cfg, nil, ins); err != nil {
		t.Fatalf("fig 2: %v", err)
	}
	b.WriteString("== fig2 ivy counters\n")
	for _, line := range fig2Counters(t, ins.Manifest) {
		b.WriteString(line + "\n")
	}
	return b.String()
}

// fig2Counters reads the simulated paper counter of each Fig 2 cell
// from the manifest's JSON, one "row/threads/layout value" line per
// layout, sorted. Cells with one layout per record carry "layout" and
// "metric"; cells pairing array and Z order carry "metric_a" and
// "metric_z". Both shapes give the same lines.
func fig2Counters(t *testing.T, m *RunManifest) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Figures []struct {
			Name  string                       `json:"name"`
			Cells []map[string]json.RawMessage `json:"cells"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Figures) != 1 || doc.Figures[0].Name != "fig2" {
		t.Fatalf("manifest figures %+v, want fig2 alone", doc.Figures)
	}
	var lines []string
	for _, c := range doc.Figures[0].Cells {
		str := func(field string) string { return strings.Trim(string(c[field]), `"`) }
		add := func(layout, field string) {
			if _, ok := c[field]; ok {
				lines = append(lines, fmt.Sprintf("%s/%s/%s %s", str("row"), str("threads"), layout, str(field)))
			}
		}
		if _, ok := c["layout"]; ok {
			add(str("layout"), "metric")
		} else {
			add("array", "metric_a")
			add("zorder", "metric_z")
		}
	}
	if len(lines) == 0 {
		t.Fatal("fig 2 manifest has no counter cells")
	}
	sort.Strings(lines)
	return lines
}

func TestGoldenFigures(t *testing.T) {
	want, err := os.ReadFile(goldenFiguresPath)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenFigures(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", goldenFiguresPath, i+1, g, w)
		}
	}
}
