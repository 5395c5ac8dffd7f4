// Command perfbench is the repository's benchmark driver: one seeded,
// closed-loop client per workload, end-to-end metrics from an untraced
// run and per-layer metrics from a separate traced run. Build and run
// it through run.py, which also builds sfcserved from the same tree:
//
//	python3 perfbench/run.py --workload kernels --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines above it are
// a readable table of the same metrics with their sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	serverBin string // sfcserved binary (serve-* workloads)
	workDir   string // work directory for data dirs and span dumps
	setupOnly bool   // set up, then exit (a set-up repetition)
}

// workloads maps each name to its driver.
var workloads = map[string]func(*bench) error{
	"kernels":           runKernels,
	"serve-interactive": runInteractive,
	"serve-churn":       runChurn,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "kernels, serve-interactive or serve-churn")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input and the op schedule")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.serverBin, "sfcserved", "", "path to the sfcserved binary")
	fs.StringVar(&cfg.workDir, "workdir", "", "work directory (data dirs, span dump)")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set up the workload and exit (used for set-up repetitions)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	drive, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || cfg.workDir == "" {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -workdir\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.setupOnly && cfg.workload != "kernels" {
		fmt.Fprintln(stderr, "perfbench: -setup-only applies to kernels only (the serve workloads restart sfcserved instead)")
		return 2
	}
	b := newBench(cfg, stderr)
	if err := drive(b); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.setupOnly {
		return 0
	}
	if cfg.trace {
		if err := b.rec.write(b.path("spans.json")); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := b.report(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metricSpec is one metric of the manifest (BENCHMARK.json).
type metricSpec struct{ name, unit, better string }

// endToEnd is the fixed end-to-end list every untraced run reports,
// whatever the workload. primary_ms and secondary_ms are the
// workload's two headline classes (see each workload's metrics
// function); the workloads' other class timings are printed in the
// table only.
func endToEnd() []metricSpec {
	return []metricSpec{
		{"setup_s", "s", "lower"},
		{"ok_rate", "ratio", "higher"},
		{"peak_rss_mb", "MB", "lower"},
		{"ops_per_s", "1/s", "higher"},
		{"primary_ms", "ms", "lower"},
		{"secondary_ms", "ms", "lower"},
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value; n is its sample count (0 for values
// that are not built from samples) and raw the value before host-speed
// normalization (0 when not normalized), both shown in the table only.
// A note is a timing shown in the table but not in the result line;
// desc says what a slot metric (primary_ms, secondary_ms) holds.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	raw   float64
	note  bool
	desc  string
}

// bench is the state shared by every workload driver: the config, the
// span recorder, per-class op tallies and the metrics to report.
type bench struct {
	cfg       config
	log       io.Writer
	rec       *recorder
	attempted map[string]int
	failed    map[string]int
	metrics   []metric
	// samples holds latencies in seconds per class, [0] from untraced
	// rounds and [1] from traced ones; nsamples the same latencies
	// normalized to the reference host speed (calib.go).
	samples, nsamples [2]map[string][]float64
	// stages holds, per class, the server's per-stage self times for
	// the workload's traced requests (see serverSample).
	stages stageSet
	// window is the exact-count channel: server counter deltas and
	// per-class op counts over the first countRounds rounds.
	window map[string]float64
	// layers holds per-layer values gathered while the workload ran.
	layers map[string]float64
	// cal samples host speed between ops (calib.go).
	cal calibrator
	// setups holds the set-up repetitions, each with the host speed
	// calibrated just before it.
	setups setupTimes
}

func newBench(cfg config, log io.Writer) *bench {
	return &bench{
		cfg:       cfg,
		log:       log,
		rec:       newRecorder(cfg.trace),
		attempted: map[string]int{},
		failed:    map[string]int{},
		samples:   [2]map[string][]float64{{}, {}},
		nsamples:  [2]map[string][]float64{{}, {}},
		stages:    stageSet{},
		window:    map[string]float64{},
		layers:    map[string]float64{},
	}
}

// timerPart is the part of a class's latency spent on a wall-clock
// timer, which no host speed shortens: a job waits out the scheduler's
// linger (sfcserved's default -job-linger) before it runs.
var timerPart = map[string]float64{
	"job_first_frame": jobLingerMS / 1e3,
	"job_done":        jobLingerMS / 1e3,
}

// sample records one latency of class in the current round's set, raw,
// and queues it for normalization to the reference host speed by the
// calibrations around the op (all but its timer part; calib.go).
func (b *bench) sample(class string, d time.Duration) {
	i := 0
	if b.rec.on {
		i = 1
	}
	raw := d.Seconds()
	b.samples[i][class] = append(b.samples[i][class], raw)
	b.nsamples[i][class] = append(b.nsamples[i][class], raw)
	share, ok := hostShare[class]
	if !ok {
		share = 1
	}
	b.cal.pending = append(b.cal.pending, pendingSample{set: i, class: class, idx: len(b.nsamples[i][class]) - 1,
		raw: raw, fixed: timerPart[class], share: share})
}

// dropSamples forgets the warm-up's latencies and server stages.
func (b *bench) dropSamples() {
	b.samples = [2]map[string][]float64{{}, {}}
	b.nsamples = [2]map[string][]float64{{}, {}}
	b.cal.pending = nil
	b.stages = stageSet{}
}

func (b *bench) path(name string) string { return b.cfg.workDir + string(os.PathSeparator) + name }

// tally counts one op of class; a failed op is logged with its reason.
func (b *bench) tally(class string, err error) {
	b.attempted[class]++
	if err != nil {
		b.failed[class]++
		fmt.Fprintf(b.log, "perfbench: %s failed: %v\n", class, err)
	}
}

func (b *bench) put(name string, value float64, unit string, n int) {
	b.metrics = append(b.metrics, metric{name: name, value: value, unit: unit, n: n})
}

// putSlot reports the median of a class's samples in ms under a slot
// name, with the class it holds.
func (b *bench) putSlot(name, desc string, xs []float64) {
	b.metrics = append(b.metrics, metric{name: name, value: median(xs) * 1e3, unit: "ms", n: len(xs), desc: desc})
}

// putCellSum reports, under a slot name, the sum over cells of each
// cell's median in ms; n is the smallest cell's sample count.
func (b *bench) putCellSum(name, desc string, s map[string][]float64, cells []string) {
	total, n := 0.0, -1
	for _, c := range cells {
		total += median(s[c])
		if n < 0 || len(s[c]) < n {
			n = len(s[c])
		}
	}
	b.metrics = append(b.metrics, metric{name: name, value: total * 1e3, unit: "ms", n: n, desc: desc})
}

// noteMedian shows the median of a class's samples in ms in the table.
func (b *bench) noteMedian(name string, xs []float64) {
	b.metrics = append(b.metrics, metric{name: name, value: median(xs) * 1e3, unit: "ms", n: len(xs), note: true})
}

// notePercentile shows a tail percentile in ms in the table, or fails
// when the samples cannot support it.
func (b *bench) notePercentile(name string, xs []float64, p float64) error {
	v, err := percentile(xs, p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	b.metrics = append(b.metrics, metric{name: name, value: v * 1e3, unit: "ms", n: len(xs), note: true})
	return nil
}

func (b *bench) totals() (attempted, failed int) {
	for c, n := range b.attempted {
		attempted += n
		failed += b.failed[c]
	}
	return
}

// putCommon reports three of the four metrics every workload has;
// finish adds setup_s. ops_per_s is divided by the run's host-speed
// scale (calib.go).
func (b *bench) putCommon(timed time.Duration, rssMB, scale float64) {
	att, fail := b.totals()
	b.put("ok_rate", float64(att-fail)/float64(max(att, 1)), "ratio", att)
	b.put("peak_rss_mb", rssMB, "MB", 0)
	rate := float64(att) / timed.Seconds()
	b.metrics = append(b.metrics, metric{name: "ops_per_s", value: rate / scale, unit: "1/s", n: att, raw: rate})
}

// e2eFunc reports a workload's own end-to-end timings from one sample
// set; strict makes a percentile without enough samples an error.
type e2eFunc func(b *bench, s map[string][]float64, strict bool) error

// finish reports the run. An untraced run reports the end-to-end
// metrics; a traced run reports the per-layer metrics and the tracing
// overhead: the traced rounds' timings against the untraced rounds'.
func (b *bench) finish(timed time.Duration, rssPid string, e2e e2eFunc) error {
	timed -= b.cal.spent
	b.calibrateNow() // the calibration after the last op
	b.logSpread()
	if len(b.cal.samples) > 0 {
		fmt.Fprintf(b.log, "perfbench: host calibration: mean %.3f ms (median %.3f) over %d samples, run factor %.4f\n",
			1e3*b.cal.mean(), 1e3*median(b.cal.samples), len(b.cal.samples), b.cal.scale())
	}
	if !b.cfg.trace {
		rss, err := peakRSSMB(rssPid)
		if err != nil {
			return err
		}
		b.putCommon(timed, rss, b.cal.scale())
		n0 := len(b.metrics)
		if err := e2e(b, b.samples[0], true); err != nil {
			return err
		}
		raws := append([]metric(nil), b.metrics[n0:]...)
		b.metrics = b.metrics[:n0]
		if err := e2e(b, b.nsamples[0], true); err != nil {
			return err
		}
		for i, m := range raws {
			b.metrics[n0+i].raw = m.value
		}
		// Set-up is normalized per repetition, by the host speed of
		// its own moment.
		raw, norm := b.setups.medians()
		b.metrics = append([]metric{{name: "setup_s", value: norm, unit: "s", n: len(b.setups.raw), raw: raw}}, b.metrics...)
		return nil
	}
	var sets [2][]metric
	for i := range sets {
		keep := b.metrics
		b.metrics = nil
		if err := e2e(b, b.samples[i], false); err != nil {
			return err
		}
		sets[i], b.metrics = b.metrics, keep
	}
	var pcts []float64
	for i, m := range sets[1] {
		if i < len(sets[0]) && sets[0][i].name == m.name && sets[0][i].value > 0 {
			p := 100 * (m.value - sets[0][i].value) / sets[0][i].value
			fmt.Fprintf(b.log, "perfbench: tracing overhead %-28s traced %.4g untraced %.4g (%+.1f%%)\n", m.name, m.value, sets[0][i].value, p)
			pcts = append(pcts, p)
		}
	}
	b.layers["trace.overhead_pct"] = median(pcts)
	b.layers["host.calib_ms"] = 1e3 * b.cal.mean()
	return b.putLayers()
}

// logSpread prints each class's sample quartiles to the log, to tell a
// shifted distribution from a heavier tail when runs disagree.
func (b *bench) logSpread() {
	var classes []string
	for c := range b.samples[0] {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		s := sorted(b.samples[0][c])
		q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
		fmt.Fprintf(b.log, "perfbench: %-16s n=%-4d min %.4g q1 %.4g med %.4g q3 %.4g max %.4g s\n", c, len(s), s[0], q(.25), q(.5), q(.75), s[len(s)-1])
	}
}

// report prints the table and the result line. The result line holds
// exactly the manifest's list for the run's kind (endToEnd or
// perLayer), each a finite number in its unit; anything else is an
// error and no result line is printed.
func (b *bench) report(w io.Writer) error {
	att, fail := b.totals()
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{fail == 0 && att > 0, att, fail, map[string]map[string]any{}}
	want := endToEnd()
	if b.cfg.trace {
		want = perLayer()
	}
	units := map[string]string{}
	for _, m := range want {
		units[m.name] = m.unit
	}
	fmt.Fprintf(w, "# %s seed=%d trace=%v\n", b.cfg.workload, b.cfg.seed, b.cfg.trace)
	for _, m := range b.metrics {
		ns := ""
		if m.n > 0 {
			ns = fmt.Sprintf("n=%-5d", m.n)
		}
		if m.raw != 0 {
			ns += fmt.Sprintf(" (raw %.6g)", m.raw)
		}
		if m.desc != "" {
			ns += " " + m.desc
		}
		name := m.name
		if m.note {
			name = "  (table only) " + name
		}
		fmt.Fprintf(w, "%-44s %14.6g %-6s %s\n", name, m.value, m.unit, ns)
		if m.note {
			continue
		}
		if units[m.name] != m.unit || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s = %v %s is not in the manifest's list as reported", m.name, m.value, m.unit)
		}
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if len(out.Metrics) != len(want) {
		return fmt.Errorf("reported %d of the manifest's %d metrics", len(out.Metrics), len(want))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// peakRSSMB reads VmHWM (peak resident set) of pid from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %s", pid)
}
