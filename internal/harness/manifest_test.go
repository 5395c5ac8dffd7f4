package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sfcmem/internal/timeline"
)

func TestHostInfoPopulated(t *testing.T) {
	h := Host()
	if h.GoVersion == "" || h.GOOS == "" || h.GOARCH == "" {
		t.Errorf("empty host fields: %+v", h)
	}
	if h.NumCPU < 1 || h.GOMAXPROCS < 1 {
		t.Errorf("non-positive CPU counts: %+v", h)
	}
}

// The manifest must round-trip through encoding/json without losing or
// mangling fields: marshal → unmarshal → marshal must be byte-identical.
func TestRunManifestRoundTrip(t *testing.T) {
	m := NewRunManifest(QuickConfig())
	m.Figures = []FigureManifest{{
		Name:           "fig2",
		ElapsedSeconds: 1.5,
		Cells: []CellRecord{{
			Kernel: "bilat", Strategy: "round-robin", Layout: "array", Dtype: "float32",
			Size: 32, Platform: "host", Row: "r1 px xyz", Threads: 2,
			Runtime: 0.25, Imbalance: 1.1,
		}, {
			Kernel: "volrend", Strategy: "dynamic", Layout: "zorder", Dtype: "float32",
			Size: 32, Image: 48, Platform: "ivy", View: 3, Threads: 2,
			Metric: 800, Cache: map[string]uint64{"paper_metric": 800, "mem.reads": 7},
		}},
		Cache: map[string]uint64{"llc.misses": 42, "mem.reads": 7},
	}}
	m.Metrics = map[string]any{"cells": map[string]any{"total": 1.0}}
	m.ElapsedSeconds = 2.25

	var first bytes.Buffer
	if err := m.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	var back RunManifest
	if err := json.Unmarshal(first.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := back.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("round trip not stable:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
	if back.Schema != ManifestSchema {
		t.Errorf("schema %q", back.Schema)
	}
	if back.Config.BilatSize != m.Config.BilatSize || back.Config.Seed != m.Config.Seed {
		t.Errorf("config fields lost in round trip: %+v", back.Config)
	}
}

// An instrumented micro run must produce a manifest with per-cell
// entries (including both strategies' imbalance factors) and a timeline
// with at least one complete event per worker lane.
func TestInstrumentedRunManifestAndTimeline(t *testing.T) {
	cfg := microConfig()
	ins := NewInstruments(cfg)
	ins.Timeline = timeline.NewRecorder()

	for _, n := range []int{2, 4} { // fig2: round-robin bilat; fig4: dynamic volrend
		if _, err := FigureObs(n, cfg, nil, ins); err != nil {
			t.Fatalf("fig %d: %v", n, err)
		}
	}
	ins.Finish()
	m := ins.Manifest

	if m.Schema != ManifestSchema {
		t.Errorf("schema %q", m.Schema)
	}
	if m.ElapsedSeconds <= 0 {
		t.Errorf("elapsed %v", m.ElapsedSeconds)
	}
	if len(m.Figures) != 2 {
		t.Fatalf("%d figures recorded, want 2", len(m.Figures))
	}
	strategies := map[string]bool{}
	for _, fig := range m.Figures {
		if fig.Name == "" || fig.ElapsedSeconds <= 0 {
			t.Errorf("figure record %+v missing name or elapsed", fig)
		}
		if len(fig.Cells) == 0 {
			t.Errorf("figure %s has no cells", fig.Name)
		}
		if len(fig.Cache) == 0 {
			t.Errorf("figure %s has no cache aggregate", fig.Name)
		}
		for _, c := range fig.Cells {
			if c.Layout == "" {
				t.Errorf("figure %s cell %+v names no layout", fig.Name, c)
			}
			if c.Platform != hostPlat {
				if c.Metric == 0 || len(c.Cache) == 0 {
					t.Errorf("figure %s cell %+v: no simulated counters", fig.Name, c)
				}
				continue
			}
			strategies[c.Strategy] = true
			if c.Imbalance < 1 {
				t.Errorf("figure %s cell %+v: imbalance %v below 1", fig.Name, c, c.Imbalance)
			}
			if c.Runtime <= 0 {
				t.Errorf("figure %s cell %+v: non-positive runtime", fig.Name, c)
			}
		}
	}
	if !strategies["round-robin"] || !strategies["dynamic"] {
		t.Errorf("strategies seen %v, want both round-robin and dynamic", strategies)
	}
	if m.Metrics == nil {
		t.Error("no metrics snapshot in manifest")
	}

	// The manifest must survive a JSON round trip without losing data.
	// Byte equality is checked on the typed fields via a second decode;
	// the free-form Metrics map is compared as canonical JSON values
	// (numbers decode to float64, whose re-encoding may differ textually).
	var first, second bytes.Buffer
	if err := m.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	var back RunManifest
	if err := json.Unmarshal(first.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if err := back.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(first.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("instrumented manifest does not round-trip stably")
	}

	// Timeline: every worker lane that appears has at least one complete
	// event, and the Chrome trace contains an X event per lane.
	workers := ins.Timeline.Workers()
	if len(workers) < 2 {
		t.Fatalf("timeline covers %d worker lanes, want >= 2 (FixedThreads=%d)", len(workers), cfg.FixedThreads)
	}
	perWorker := map[int]int{}
	for _, ev := range ins.Timeline.Events() {
		perWorker[ev.Worker]++
	}
	for _, w := range workers {
		if perWorker[w] == 0 {
			t.Errorf("worker lane %d has no events", w)
		}
	}
	var trace bytes.Buffer
	if err := ins.Timeline.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	xPerLane := map[int]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			xPerLane[ev.Tid]++
		}
	}
	for _, w := range workers {
		if xPerLane[w] == 0 {
			t.Errorf("chrome trace lane tid=%d has no X events", w)
		}
	}
}

// A nil *Instruments must be safe through every entry point.
func TestNilInstrumentsSafe(t *testing.T) {
	var ins *Instruments
	end := ins.StartFigure("fig0")
	end()
	ins.RecordCell(CellRecord{Kernel: "bilat"})
	ins.Finish()
	if obs := ins.Observer("x"); obs != nil {
		t.Error("nil instruments returned non-nil observer")
	}
	if ins.active() {
		t.Error("nil instruments active")
	}
}

// Figure-phase spans land on worker lane 0 with the figure's name.
func TestStartFigureEmitsTimelineSpan(t *testing.T) {
	ins := NewInstruments(QuickConfig())
	ins.Timeline = timeline.NewRecorder()
	end := ins.StartFigure("fig9")
	end()
	evs := ins.Timeline.Events()
	if len(evs) != 1 || evs[0].Name != "fig9" {
		t.Fatalf("events %+v, want one fig9 span", evs)
	}
	snap := ins.Metrics.Snapshot()
	b, _ := json.Marshal(snap)
	if !strings.Contains(string(b), "fig9") {
		t.Errorf("figures phase timer missing fig9: %s", b)
	}
}

// TestCellsCSVInapplicableColumnsEmpty: a column that does not apply to
// a row is an empty field, not 0 — a bilateral row has no image or
// viewpoint, a Fig 1 stride row no size, viewpoint or threads — while
// a render's viewpoint 0 is a real value.
func TestCellsCSVInapplicableColumnsEmpty(t *testing.T) {
	rows := []CellRecord{
		{Kernel: bilatKernel, Strategy: "round-robin", Layout: "array", Dtype: "float32", Size: 32,
			Platform: "host", Row: "r1 px xyz", Threads: 2, Runtime: 0.5},
		{Kernel: volrendKernel, Strategy: "dynamic", Layout: "zorder", Dtype: "float32", Size: 32, Image: 16,
			Platform: "ivy", View: 0, Threads: 2, Metric: 7, Cache: map[string]uint64{"mem.reads": 3}},
		{Kernel: "stride", Layout: "zorder", Runtime: 0.1},
		{Kernel: "stride-sweep", Strategy: "dynamic", Threads: 4, Runtime: 0.2, Imbalance: 1.5},
	}
	var buf bytes.Buffer
	if err := WriteCellsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1+len(rows) {
		t.Fatalf("%d lines, want a header and %d rows", len(lines), len(rows))
	}
	col := map[string]int{}
	for i, name := range lines[0] {
		col[name] = i
	}
	want := []map[string]string{
		{"size": "32", "image": "", "row": "r1 px xyz", "view": "", "threads": "2", "metric": "", "mem.reads": ""},
		{"size": "32", "image": "16", "row": "", "view": "0", "threads": "2", "metric": "7", "mem.reads": "3"},
		{"size": "", "image": "", "row": "", "view": "", "threads": "", "runtime_s": "0.1"},
		{"size": "", "image": "", "view": "", "threads": "4", "imbalance": "1.5"},
	}
	for i, w := range want {
		for name, v := range w {
			if got := lines[1+i][col[name]]; got != v {
				t.Errorf("%s row: %s = %q, want %q", rows[i].Kernel, name, got, v)
			}
		}
	}
}
