package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call from the driver into a layer of the program.
// Parent is the index of the enclosing span (-1 at the top); Trace is
// the identifier shared with the server through traceparent, empty for
// in-process calls.
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Trace  string        `json:"trace,omitempty"`
}

// recorder keeps spans in memory; a disabled recorder (the untraced
// run) costs one branch per call. The driver is single-threaded, so
// the open-span stack gives each new span its parent.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int
}

func newRecorder(on bool) *recorder { return &recorder{on: on, epoch: time.Now()} }

// begin opens a span and returns the function that closes it.
func (r *recorder) begin(layer, name, trace string) func() {
	if !r.on {
		return func() {}
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Layer: layer, Start: time.Since(r.epoch), Parent: parent, Trace: trace})
	r.open = append(r.open, id)
	return func() {
		r.spans[id].End = time.Since(r.epoch)
		r.open = r.open[:len(r.open)-1]
	}
}

// write dumps every span as JSON to path.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, c := range kids[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0] < ivs[y][0] })
		var covered, curA, curB time.Duration
		for n, iv := range ivs {
			if n == 0 || iv[0] > curB {
				covered += curB - curA
				curA, curB = iv[0], iv[1]
			} else if iv[1] > curB {
				curB = iv[1]
			}
		}
		covered += curB - curA
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += d
	}
	return out
}
