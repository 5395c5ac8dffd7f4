package main

import (
	"math"
	"time"
)

// Host-speed calibration. The benchmark's host runs the same code up to
// twice as fast at one moment as at another (see README.md, Noise).
// calibrate runs a fixed piece of the driver's own code, never the
// program's: an exp-weighted 27-point stencil over a 20³ block in
// cache. Between ops, at most every calInterval, the driver times it;
// each op's time is reported scaled by calRef over the mean of the
// calibration just before the op and the one just after it.
//
// Compute only, no memory walk: logged per op, this stencil's time
// moves one-to-one with the kernels' (log-log slope 1.03 for frames,
// 1.14 for filter passes), while a walk of cache-missing loads over
// 64 MiB barely moved with the host (slope 2.1) and, added in, made the
// calibration under-correct the slow stretches.
const (
	calRef      = 4 * time.Millisecond // this host's typical calibrate time
	calInterval = 100 * time.Millisecond
)

// hostShare is, per class, how far its latency moves with the
// calibration: the log-log slope of op time on the mean of the
// calibrations around it, fitted per op over three runs. A class
// scales by (calRef/calibration)^share. Listed are the classes that
// track the calibration closely (correlation ≥ 0.85) but less than
// one-to-one, because part of a request through the disk-backed store
// (page-cache copies, syscalls) does not slow with the CPU. Every other
// class scales one-to-one: kernel frames (measured 1.03), filter
// passes (1.14) and render misses (1.00) do; hits and revalidations
// track it too loosely to fit (correlation ≤ 0.79).
var hostShare = map[string]float64{"cold_render": 0.72, "upload": 0.77}

var (
	calSrc  = make([]float32, 20*20*20)
	calDst  = make([]float32, 20*20*20)
	calSink float32
)

func init() {
	for i := range calSrc {
		calSrc[i] = float32(math.Sin(float64(i) * 0.37))
	}
}

func calibrate() time.Duration {
	const n = 20
	t0 := time.Now()
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				c := calSrc[(k*n+j)*n+i]
				var s, w float32
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							v := calSrc[((k+dk)*n+j+dj)*n+i+di]
							d := v - c
							ww := float32(math.Exp(float64(-d * d * 50)))
							s += ww * v
							w += ww
						}
					}
				}
				calDst[(k*n+j)*n+i] = s / w
			}
		}
	}
	calSink += calDst[n*n+n+1]
	return time.Since(t0)
}

// calibrator holds the run's calibrations and the samples that wait
// for the calibration after them.
type calibrator struct {
	samples []float64 // seconds
	spent   time.Duration
	at      time.Time // when the latest sample was taken
	pending []pendingSample
}

// pendingSample is a latency recorded in bench.nsamples as raw, to be
// scaled once the calibration after it is known; fixed is the part of
// it that no host speed changes (see timerPart), share the class's
// hostShare.
type pendingSample struct {
	set               int
	class             string
	idx               int
	raw, fixed, share float64
}

// maybeCalibrate calibrates unless the latest calibration is less than
// calInterval old.
func (b *bench) maybeCalibrate() {
	if len(b.cal.samples) > 0 && time.Since(b.cal.at) < calInterval {
		return
	}
	b.calibrateNow()
}

// calibrateNow takes a calibration.
func (b *bench) calibrateNow() { b.addCalibration(calibrate()) }

// addCalibration records a calibration that took d and scales every
// pending sample by calRef over the mean of the calibration before it
// and this one.
func (b *bench) addCalibration(d time.Duration) {
	cur := d.Seconds()
	prev := cur
	if n := len(b.cal.samples); n > 0 {
		prev = b.cal.samples[n-1]
	}
	b.cal.samples = append(b.cal.samples, cur)
	b.cal.spent += d
	b.cal.at = time.Now()
	f := calRef.Seconds() / ((prev + cur) / 2)
	for _, p := range b.cal.pending {
		b.nsamples[p.set][p.class][p.idx] = p.fixed + (p.raw-p.fixed)*math.Pow(f, p.share)
	}
	b.cal.pending = b.cal.pending[:0]
}

// mean is the run's mean calibrate time in seconds: a rate over the
// whole run weighs each host mode by the time spent in it, as the mean
// does.
func (c *calibrator) mean() float64 { return sum(c.samples) / float64(len(c.samples)) }

// scale is calRef over the run's mean calibrate time, for rates over
// the whole run: > 1 when the host ran slower than the reference.
func (c *calibrator) scale() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return calRef.Seconds() / c.mean()
}

// setupTimes records set-up repetitions, each normalized by the mean of
// three calibrate runs taken just before it and three just after.
type setupTimes struct {
	raw, norm []float64
	cal       float64 // mean calibrate time of the latest calibrate call
}

func (s *setupTimes) calibrate() {
	var t time.Duration
	for i := 0; i < 3; i++ {
		t += calibrate()
	}
	s.cal = t.Seconds() / 3
}

// add records a set-up that took d, calibrated before it by calibrate.
func (s *setupTimes) add(d time.Duration) {
	before := s.cal
	s.calibrate()
	s.raw = append(s.raw, d.Seconds())
	s.norm = append(s.norm, d.Seconds()*calRef.Seconds()/((before+s.cal)/2))
}

func (s *setupTimes) medians() (raw, norm float64) { return median(s.raw), median(s.norm) }
