package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestScheduleRepeatsForASeed(t *testing.T) {
	gen := func(seed uint64) (is [][]iOp, cs [][]cOp) {
		ri := rand.New(rand.NewPCG(seed, 1))
		rc := rand.New(rand.NewPCG(seed, 2))
		for r := 0; r < 20; r++ {
			is = append(is, interactiveRound(ri))
			cs = append(cs, churnRound(rc))
		}
		return
	}
	i1, c1 := gen(7)
	i2, c2 := gen(7)
	if !reflect.DeepEqual(i1, i2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("same seed gave different schedules")
	}
	i3, c3 := gen(8)
	if reflect.DeepEqual(i1, i3) || reflect.DeepEqual(c1, c3) {
		t.Fatal("another seed gave the same order")
	}
	// Another seed reorders but keeps each round's class counts.
	count := func(ops []iOp) map[string]int {
		m := map[string]int{}
		for _, o := range ops {
			m[o.class+o.dtype]++
		}
		return m
	}
	for r := range i1 {
		if !reflect.DeepEqual(count(i1[r]), count(i3[r])) {
			t.Fatalf("round %d: class counts %v vs %v", r, count(i1[r]), count(i3[r]))
		}
		if len(c1[r]) != len(c3[r]) {
			t.Fatalf("churn round %d: %d vs %d ops", r, len(c1[r]), len(c3[r]))
		}
	}
	if !reflect.DeepEqual(kernelSweep(3), kernelSweep(3)) {
		t.Fatal("kernel sweep not deterministic")
	}
}

func TestKernelSweepCoversEveryLayout(t *testing.T) {
	for sweep := 0; sweep < 4; sweep++ {
		frames := map[string]int{}
		passes := map[string]int{}
		for _, op := range kernelSweep(sweep) {
			if op.class == "frame" {
				frames[op.layout]++
			} else {
				passes[op.layout]++
			}
		}
		for _, l := range renderLayouts {
			if frames[l] != orbitViews {
				t.Errorf("sweep %d: %d frames in %s, want %d", sweep, frames[l], l, orbitViews)
			}
		}
		for _, l := range filterLayouts {
			if passes[l] != 1 {
				t.Errorf("sweep %d: %d passes in %s, want 1", sweep, passes[l], l)
			}
		}
	}
}

func TestTallyAttemptedIsOKPlusFailed(t *testing.T) {
	b := newBench(config{workload: "kernels"}, nopWriter{})
	bad := errors.New("bad")
	for i := 0; i < 10; i++ {
		var err error
		if i%4 == 0 {
			err = bad
		}
		b.tally("a", err)
	}
	b.tally("b", nil)
	b.tally("b", bad)
	if b.attempted["a"] != 10 || b.failed["a"] != 3 || b.attempted["b"] != 2 || b.failed["b"] != 1 {
		t.Fatalf("attempted %v failed %v", b.attempted, b.failed)
	}
	att, fail := b.totals()
	if att != 12 || fail != 4 {
		t.Fatalf("totals %d/%d", att, fail)
	}
	b.putCommon(time.Second, 1, 1)
	for _, m := range b.metrics {
		if m.name == "ok_rate" && m.value != 8.0/12 {
			t.Fatalf("ok_rate %v", m.value)
		}
	}
}

func TestSamplesScaleByTheCalibrationsAroundThem(t *testing.T) {
	b := newBench(config{workload: "serve-interactive"}, nopWriter{})
	b.addCalibration(calRef) // the host at reference speed
	b.sample("render_miss", 40*time.Millisecond)
	if got := b.nsamples[0]["render_miss"][0]; got != 0.040 {
		t.Fatalf("a sample with no calibration after it must read as measured, got %v", got)
	}
	b.addCalibration(3 * calRef) // mean of the two around it: half speed
	b.sample("render_miss", 40*time.Millisecond)
	// A job's linger is a wall-clock timer: 25 ms stay, the rest halves.
	b.sample("job_done", 65*time.Millisecond)
	b.sample("upload", 40*time.Millisecond) // moves with the host by its share
	b.addCalibration(calRef)                // (3 + 1) / 2: half speed again
	near := func(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }
	got := b.nsamples[0]
	if !near(got["render_miss"][0], 0.020) || !near(got["render_miss"][1], 0.020) || !near(got["job_done"][0], 0.045) {
		t.Fatalf("normalized samples %v", got)
	}
	if !near(got["upload"][0], 0.040*math.Pow(0.5, hostShare["upload"])) {
		t.Fatalf("upload normalized to %v", got["upload"][0])
	}
	if raw := b.samples[0]["render_miss"]; !near(raw[1], 0.040) {
		t.Fatalf("raw samples %v", raw)
	}
	if len(b.cal.pending) != 0 {
		t.Fatalf("%d samples still pending", len(b.cal.pending))
	}
	b.sample("render_hit", time.Millisecond)
	b.dropSamples()
	b.addCalibration(calRef)
	if len(b.nsamples[0]) != 0 {
		t.Fatal("dropped samples came back")
	}
	var c calibrator
	if c.scale() != 1 {
		t.Fatal("no samples must leave rates as measured")
	}
	c.samples = []float64{0.02, 0.03, 0.01}
	if got := c.scale(); got != calRef.Seconds()/(0.06/3) {
		t.Fatalf("scale %v", got)
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 90); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p90 of 99 samples: err %v", err)
	}
	xs = append(xs, 100)
	v, err := percentile(xs, 90)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v", v, err)
	}
	if _, err := percentile(xs[:19], 50); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p50 of 19 samples: err %v", err)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median %v", m)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	// root 0..100 with children 10..30 and 20..50 (overlapping) and
	// 60..70; the 60..70 child has a grandchild 62..65.
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "b", Start: ms(20), End: ms(50), Parent: 0},
		{Name: "c", Start: ms(60), End: ms(70), Parent: 0},
		{Name: "d", Start: ms(62), End: ms(65), Parent: 3},
	}
	want := []time.Duration{ms(50), ms(20), ms(30), ms(7), ms(3)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	// nestSpans rebuilds the same tree from intervals alone.
	flat := append([]span(nil), spans...)
	for i := range flat {
		flat[i].Parent = -2
	}
	nestSpans(flat)
	for i := range flat {
		if flat[i].Parent != spans[i].Parent {
			t.Fatalf("span %s: parent %d, want %d", flat[i].Name, flat[i].Parent, spans[i].Parent)
		}
	}
}

func TestRecorderParents(t *testing.T) {
	r := newRecorder(true)
	end1 := r.begin("sfcserved", "outer", "t")
	r.begin("render", "inner", "")()
	end1()
	r.begin("filter", "next", "")()
	if r.spans[1].Parent != 0 || r.spans[2].Parent != -1 {
		t.Fatalf("parents %+v", r.spans)
	}
	off := newRecorder(false)
	off.begin("x", "y", "")()
	if len(off.spans) != 0 {
		t.Fatal("disabled recorder kept a span")
	}
}

func TestClassification(t *testing.T) {
	h := http.Header{}
	h.Set("X-Cache", "miss")
	if c := cacheClass("render", h); c != "render_miss" {
		t.Fatal(c)
	}
	h.Set("X-Cache", "hit")
	if c := cacheClass("render", h); c != "render_hit" {
		t.Fatal(c)
	}
	if c := cacheClass("render", http.Header{}); c != "render_uncached" {
		t.Fatal(c)
	}
	if c := loadClass(map[string]float64{"store.loads": 4}, map[string]float64{"store.loads": 5}); c != "cold_render" {
		t.Fatal(c)
	}
	if c := loadClass(map[string]float64{"store.loads": 5}, map[string]float64{"store.loads": 5}); c != "warm_render" {
		t.Fatal(c)
	}
}

func TestPerLayerNamesFitTheContract(t *testing.T) {
	ms := perLayer()
	if len(ms) < 1 || len(ms) > 128 {
		t.Fatalf("%d per-layer metrics; the contract allows 1..128", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if seen[m.name] || len(m.name) > 64 || len(m.unit) > 16 {
			t.Errorf("bad or repeated metric %+v", m)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the metrics the driver reports: report refuses to print
// a result line that differs from these lists.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		got  []entry
		want []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd()}, {"per_layer", spec.PerLayer, perLayer()}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, driver %d", len(c.got), c.key, len(c.want))
		}
		for i, m := range c.want {
			if g := c.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d] = %+v, driver reports %+v", c.key, i, g, m)
			}
		}
	}
}

// TestReportHoldsExactlyTheManifestList: a run whose metrics differ
// from the manifest's list prints no result line.
func TestReportHoldsExactlyTheManifestList(t *testing.T) {
	full := func() *bench {
		b := newBench(config{workload: "kernels"}, nopWriter{})
		b.tally("frame", nil)
		for _, m := range endToEnd() {
			b.put(m.name, 1.5, m.unit, 0)
		}
		return b
	}
	var out bytes.Buffer
	if err := full().report(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || len(res.Metrics) != len(endToEnd()) {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}

	b := full()
	b.metrics = b.metrics[1:] // one short
	if err := b.report(io.Discard); err == nil {
		t.Error("a run missing a manifest metric printed a result")
	}
	b = full()
	b.put("orbit_s", 1, "s", 0) // not in the manifest
	if err := b.report(io.Discard); err == nil {
		t.Error("a run with a metric outside the manifest printed a result")
	}
	b = full()
	b.noteMedian("tune_p50_ms", []float64{0.5}) // table only: allowed
	if err := b.report(io.Discard); err != nil {
		t.Error(err)
	}
	b = full()
	b.metrics[4].value = math.NaN()
	if err := b.report(io.Discard); err == nil {
		t.Error("a NaN metric printed a result")
	}
}
