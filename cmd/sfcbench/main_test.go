package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sfcmem/internal/harness"
	"sfcmem/internal/stats"
)

// micro shrinks every dimension below even -quick so CLI tests finish in
// well under a second per run.
var micro = []string{
	"-quick",
	"-bilat-size", "16", "-bilat-sim-size", "16",
	"-vol-size", "16", "-vol-sim-size", "16",
	"-image", "16", "-sim-image", "16",
	"-ivy-threads", "2", "-mic-threads", "2",
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-fig", "12"},
		{"-fig", "-1"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		code, _, stderr := runCLI(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "flag") {
			t.Errorf("%v: stderr lacks usage: %q", args, stderr)
		}
	}
}

func TestRunUnwritableOutputs(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A path through a regular file is unwritable for both plain files
	// (-out and friends) and directories (-csv, whose MkdirAll would
	// happily create missing parents).
	bad := filepath.Join(blocker, "x")
	for _, flagName := range []string{"-out", "-csv", "-metrics-json", "-timeline"} {
		args := append([]string{"-fig", "1", flagName, bad}, micro...)
		code, _, stderr := runCLI(t, args...)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1 (stderr %q)", flagName, code, stderr)
		}
		if !strings.Contains(stderr, "sfcbench:") {
			t.Errorf("%s: stderr %q lacks error prefix", flagName, stderr)
		}
	}
}

func TestRunBadDtype(t *testing.T) {
	// Validated up front, before any measurement.
	code, _, stderr := runCLI(t, append([]string{"-fig", "11", "-dtype", "uint8,int3"}, micro...)...)
	if code != 1 || !strings.Contains(stderr, "unknown dtype") {
		t.Errorf("exit %d stderr %q", code, stderr)
	}
}

func TestRunBadThreadSweep(t *testing.T) {
	code, _, stderr := runCLI(t, "-fig", "1", "-ivy-threads", "2,zero")
	if code != 1 || !strings.Contains(stderr, "bad thread count") {
		t.Errorf("exit %d stderr %q", code, stderr)
	}
}

// The ISSUE acceptance command: a quick fig-1 run with both
// observability sinks must emit a parseable manifest and a Chrome trace
// with at least one complete event per worker lane.
func TestRunQuickFig1MetricsAndTimeline(t *testing.T) {
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "out.json")
	tracePath := filepath.Join(dir, "tl.json")
	args := append([]string{"-fig", "1", "-metrics-json", manifestPath, "-timeline", tracePath}, micro...)
	code, stdout, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Fig 1a") {
		t.Errorf("stdout lacks fig1 table:\n%s", stdout)
	}
	if !strings.Contains(stderr, "fig1 done in") {
		t.Errorf("stderr lacks pacing line: %q", stderr)
	}

	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m harness.RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	if m.Schema != harness.ManifestSchema {
		t.Errorf("schema %q", m.Schema)
	}
	if m.Host.NumCPU < 1 || m.Host.GoVersion == "" {
		t.Errorf("host info %+v", m.Host)
	}
	if m.Config.BilatSize != 16 {
		t.Errorf("config not captured: %+v", m.Config)
	}
	if len(m.Figures) != 1 || m.Figures[0].Name != "fig1" {
		t.Fatalf("figures %+v", m.Figures)
	}
	if len(m.Figures[0].Cells) == 0 {
		t.Error("fig1 recorded no cells")
	}
	for _, c := range m.Figures[0].Cells {
		if c.Kernel == "stride" && c.Runtime <= 0 {
			t.Errorf("cell %+v has no wall-clock entry", c)
		}
	}

	tr, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	lanes := map[int]int{}
	workers := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			lanes[ev.Tid]++
			workers[ev.Tid] = true
		}
	}
	if len(workers) < 2 {
		t.Errorf("trace covers %d worker lanes, want >= 2", len(workers))
	}
	for w := range workers {
		if lanes[w] == 0 {
			t.Errorf("lane %d has no X events", w)
		}
	}
}

func TestRunPprofFlag(t *testing.T) {
	// Unresolvable listen address fails fast.
	code, _, stderr := runCLI(t, append([]string{"-fig", "1", "-pprof", "256.256.256.256:0"}, micro...)...)
	if code != 1 || !strings.Contains(stderr, "sfcbench:") {
		t.Errorf("bad pprof addr: exit %d stderr %q", code, stderr)
	}
	// A real ephemeral listener serves for the duration of the run.
	code, _, stderr = runCLI(t, append([]string{"-fig", "1", "-pprof", "127.0.0.1:0"}, micro...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "/debug/pprof/") {
		t.Errorf("stderr lacks pprof banner: %q", stderr)
	}
}

func TestRunWritesOutAndCSV(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "results.txt")
	csvDir := filepath.Join(dir, "csv")
	args := append([]string{"-fig", "1", "-out", outPath, "-csv", csvDir}, micro...)
	if code, _, stderr := runCLI(t, args...); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if data, err := os.ReadFile(outPath); err != nil || !strings.Contains(string(data), "Fig 1a") {
		t.Errorf("out file: %v, %q", err, data)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "fig1_0.csv")); err != nil {
		t.Error(err)
	}
}

// TestRunWritesCellsCSV: -csv also writes the long-form rows behind the
// tables, one line per measured point, each naming its layout.
func TestRunWritesCellsCSV(t *testing.T) {
	csvDir := filepath.Join(t.TempDir(), "csv")
	args := append([]string{"-fig", "2", "-csv", csvDir}, micro...)
	if code, _, stderr := runCLI(t, args...); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	f, err := os.Open(filepath.Join(csvDir, "cells.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// 2 radii × 2 rows × 1 thread count × 2 layouts × (host, ivy).
	if len(lines) != 1+16 {
		t.Fatalf("%d lines, want a header and 16 rows", len(lines))
	}
	col := map[string]int{}
	for i, name := range lines[0] {
		col[name] = i
	}
	for _, name := range []string{"layout", "platform", "runtime_s", "metric", "llc.misses", "mem.reads"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("header %v lacks %q", lines[0], name)
		}
	}
	for _, l := range lines[1:] {
		if l[col["layout"]] != "array" && l[col["layout"]] != "zorder" {
			t.Errorf("row %v: layout %q", l, l[col["layout"]])
		}
		measured := l[col["runtime_s"]]
		if l[col["platform"]] != "host" {
			measured = l[col["mem.reads"]]
		}
		if measured == "" {
			t.Errorf("row %v measured nothing", l)
		}
	}
}

func TestParseThreads(t *testing.T) {
	def := []int{1, 2}
	got, err := parseThreads("", def)
	if err != nil || len(got) != 2 {
		t.Errorf("default passthrough: %v %v", got, err)
	}
	got, err = parseThreads("2, 8,24", def)
	if err != nil || len(got) != 3 || got[2] != 24 {
		t.Errorf("parse: %v %v", got, err)
	}
	for _, bad := range []string{"x", "0", "-3", "1,,2"} {
		if _, err := parseThreads(bad, def); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestParseThreadsSortsAndDedupes: each thread count is one table
// column, so duplicates would measure a column twice and out-of-order
// counts would plot the sweep out of order; parseThreads must normalise
// them.
func TestParseThreadsSortsAndDedupes(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"4,1,4", []int{1, 4}},
		{"8,2,24,2", []int{2, 8, 24}},
		{"16,16,16", []int{16}},
		{"1,2,3", []int{1, 2, 3}},
	}
	for _, c := range cases {
		got, err := parseThreads(c.in, nil)
		if err != nil {
			t.Errorf("parseThreads(%q): %v", c.in, err)
			continue
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("parseThreads(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWriteCSVs(t *testing.T) {
	dir := t.TempDir()
	tb := stats.NewTable("t", []string{"r"}, []string{"c"})
	tb.Set(0, 0, 1)
	res := harness.FigureResult{Name: "figX", Tables: []*stats.Table{tb}}
	if err := writeCSVs(dir, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figX_0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "row,c\n") {
		t.Errorf("csv content %q", data)
	}
	// Table-less figures are a no-op.
	if err := writeCSVs(dir, harness.FigureResult{Name: "none"}); err != nil {
		t.Error(err)
	}
}
