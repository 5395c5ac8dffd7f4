// Package obs is the request-scoped observability layer for the serving
// path: a per-request trace context (W3C traceparent in, X-Request-Id
// out) carrying a span recorder, a lock-free ring of recently completed
// traces, an in-flight registry for live inspection, structured access
// logs, and Chrome trace_event export bridged through internal/timeline
// so request span-trees and kernel worker timelines speak one format.
//
// The kernel-level instruments (internal/metrics, internal/timeline)
// answer "where does a *run* spend its time"; this package answers
// "where did *this request* spend its time" — the attribution the
// paper's layout arguments need once kernels sit behind a service:
// a slow response could be admission queueing, a cache miss, the
// memory-touching kernel itself, or PNG encode, and only stage-resolved
// spans can tell those apart.
//
// Recording is allocation-light and lock-free on the hot path: a span
// is one slot claim (atomic add) plus a struct write into a fixed
// array; traces past the span cap count drops instead of growing.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the kernel item spans one trace stores, and
// maxStageSpans its stage spans: 512 slots in all. The two regions fill
// independently: a stage span is recorded only when its stage ends, so
// in a shared region the items of a big kernel (4096 pencils of a 64³
// filter) would crowd out the stages still open around them. Past
// either cap the trace counts drops so a pathological request cannot
// balloon memory.
const (
	maxSpans      = 256
	maxStageSpans = 256
)

// A Span is one completed region of a request: a serial handler stage
// (Worker < 0) or one kernel work item on a worker lane (Worker >= 0).
// Start is the offset from the trace's start time. Depth is the stage
// nesting level at record time — 0 for top-level stages, so summing
// depth-0 stage durations approximates the request's total latency.
type Span struct {
	Name   string        `json:"name"`
	Worker int           `json:"worker"`
	Depth  int           `json:"depth"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// Trace is one request's span recorder plus its identity: the request
// ID the service minted (or honored), and the W3C trace-context IDs.
// Stage spans are recorded by the handler goroutine (or StageAt's
// caller); kernel item spans arrive concurrently from worker goroutines
// via Observer, which is why each span region is claimed with an atomic
// index.
type Trace struct {
	// RequestID is the value emitted as X-Request-Id.
	RequestID string
	// TraceID and SpanID are this request's W3C trace-context identity;
	// ParentID is the caller's span ID when the request carried a valid
	// traceparent header, else empty.
	TraceID  string
	SpanID   string
	ParentID string
	Route    string
	Start    time.Time

	// Filled in by Finish; read by exporters and the access log.
	Status int
	Bytes  int64
	Cache  string // X-Cache disposition ("hit", "miss", "coalesced", "")
	Total  time.Duration

	// depth is the live stage nesting level. Only the handler goroutine
	// calls Stage, so a plain int is race-free; kernel observers never
	// touch it.
	depth int

	// nextStage and nextItem count the slots claimed in each region;
	// they may exceed the region's capacity.
	nextStage, nextItem atomic.Int64
	stages              [maxStageSpans]Span
	items               [maxSpans]Span
	dropped             atomic.Uint64

	// notes are the request's key=value facts (Note), in record order.
	notes [][2]string

	// stage is the most recently entered live stage, for the in-flight
	// listing. Stored atomically because /ops/requests reads it from
	// another goroutine mid-request.
	stage atomic.Pointer[string]
}

// randHex returns n random bytes as lowercase hex.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic("obs: rand: " + err.Error())
	}
	return hex.EncodeToString(b)
}

// hexStr reports whether s is entirely hex digits.
func hexStr(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// isID reports whether s is a valid trace-context identifier: hex and
// not all zeros (the spec reserves the all-zero IDs as invalid).
func isID(s string) bool {
	if !hexStr(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return true
		}
	}
	return false
}

// ParseTraceparent extracts the trace ID and parent span ID from a W3C
// traceparent header value (version 00: "00-<32 hex>-<16 hex>-<2 hex>").
// Malformed values are rejected rather than half-parsed, per the spec's
// restart rule: the service then starts a fresh trace.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	parts := strings.Split(h, "-")
	if len(parts) < 4 || len(parts[0]) != 2 || parts[0] == "ff" || !hexStr(parts[0]) {
		return "", "", false
	}
	if len(parts[1]) != 32 || !isID(parts[1]) || len(parts[2]) != 16 || !isID(parts[2]) {
		return "", "", false
	}
	if len(parts[3]) != 2 || !hexStr(parts[3]) {
		return "", "", false
	}
	return strings.ToLower(parts[1]), strings.ToLower(parts[2]), true
}

// Traceparent renders the trace's outgoing header value: this request's
// span becomes the parent of anything downstream.
func (t *Trace) Traceparent() string {
	return "00-" + t.TraceID + "-" + t.SpanID + "-01"
}

// NewTrace starts a trace for route. traceparent is the inbound header
// value ("" for none); requestID is the inbound X-Request-Id ("" mints
// a fresh one).
func NewTrace(route, traceparent, requestID string) *Trace {
	t := &Trace{
		Route:     route,
		SpanID:    randHex(8),
		RequestID: requestID,
	}
	if tid, pid, ok := ParseTraceparent(traceparent); ok {
		t.TraceID, t.ParentID = tid, pid
	} else {
		t.TraceID = randHex(16)
	}
	if t.RequestID == "" || len(t.RequestID) > 128 {
		t.RequestID = randHex(8)
	}
	// The clock starts once the recorder exists: allocating its span
	// arrays is observability overhead, not request work, and no stage
	// could cover it.
	t.Start = time.Now()
	return t
}

// Stage enters a named stage and returns the func that ends it. Stages
// must be entered and ended by the request's handler goroutine, in
// stack order; the returned func records the completed span at the
// depth the stage was entered at. Safe on a nil trace (no-op), so
// instrumentation points cost one nil check when observability is off.
func (t *Trace) Stage(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now() // first, so back-to-back stages leave no gap
	depth := t.depth
	t.depth++
	t.stage.Store(&name)
	return func() {
		d := time.Since(start)
		t.depth--
		t.addSpan(Span{Name: name, Worker: -1, Depth: depth, Start: start.Sub(t.Start), Dur: d})
	}
}

// StageAt records an already-completed top-level stage span from
// explicit timestamps. Stage's enter/end discipline requires one
// goroutine holding the region open on its stack; lifecycle phases
// whose boundaries cross goroutines — a job's queue wait (enqueued by
// a handler, dequeued by a scheduler), a batch's seal-to-start gap —
// have no such goroutine, so their owner records them after the fact.
// Safe from any goroutine (the span array is claimed atomically) and
// on a nil trace; it never touches the live nesting depth.
func (t *Trace) StageAt(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.addSpan(Span{Name: name, Worker: -1, Depth: 0, Start: start.Sub(t.Start), Dur: d})
}

// Note records a fact about how the request ran — which path served
// it, whether a cached artifact was reused — for the access log. Like
// Stage, it is called from the handler goroutine
// before Finish; safe on a nil trace.
func (t *Trace) Note(key, value string) {
	if t == nil {
		return
	}
	t.notes = append(t.notes, [2]string{key, value})
}

// Notes returns the recorded notes in record order. Call it only after
// the request finished; the result aliases the trace's storage.
func (t *Trace) Notes() [][2]string { return t.notes }

// Mark updates the live stage label shown by the in-flight listing
// without opening a span — for owners that record their spans
// retroactively via StageAt but still want /ops/requests to show where
// the work currently sits. Safe from any goroutine and on a nil trace.
func (t *Trace) Mark(name string) {
	if t == nil {
		return
	}
	t.stage.Store(&name)
}

// Observer returns a parallel.Observer-shaped callback recording each
// completed kernel work item as a span on its worker lane, or nil for a
// nil trace — so the caller can hand it straight to kernel Options.
func (t *Trace) Observer(name string) func(worker, item int, start time.Time, dur time.Duration) {
	if t == nil {
		return nil
	}
	return func(worker, item int, start time.Time, dur time.Duration) {
		t.addSpan(Span{Name: name, Worker: worker, Depth: t.kernelDepth(), Start: start.Sub(t.Start), Dur: dur})
	}
}

// kernelDepth is the depth item spans record at: one under the current
// stage. Reading t.depth from a worker goroutine would race; item spans
// always fire inside a kernel stage entered before the workers started
// and ended after they joined, so the value is stable — but rather than
// prove that at every call site, item spans use a fixed sentinel depth
// that keeps them out of top-level stage sums.
func (t *Trace) kernelDepth() int { return 1 << 8 }

// addSpan stores s in its region: stage spans (Worker < 0) apart from
// kernel item spans.
func (t *Trace) addSpan(s Span) {
	next, region := &t.nextItem, t.items[:]
	if s.Worker < 0 {
		next, region = &t.nextStage, t.stages[:]
	}
	i := next.Add(1) - 1
	if i >= int64(len(region)) {
		t.dropped.Add(1)
		return
	}
	region[i] = s
}

// Dropped returns how many spans the caps discarded.
func (t *Trace) Dropped() uint64 { return t.dropped.Load() }

// CurrentStage returns the most recently entered stage name, or "" if
// none has been entered yet. Safe to call from any goroutine while the
// request runs.
func (t *Trace) CurrentStage() string {
	if p := t.stage.Load(); p != nil {
		return *p
	}
	return ""
}

// Finish seals the trace with the response's status, body size, and
// cache disposition. After Finish the span set is immutable.
func (t *Trace) Finish(status int, bytes int64, cache string) {
	t.Status = status
	t.Bytes = bytes
	t.Cache = cache
	t.Total = time.Since(t.Start)
}

// Spans returns the recorded stage spans in record order, then the
// kernel item spans in record order. The result may alias the trace's
// storage; callers must treat it as read-only and only call Spans after
// the request finished (exporters do — the ring hands out finished
// traces only).
func (t *Trace) Spans() []Span {
	items := t.items[:min(t.nextItem.Load(), maxSpans)]
	return append(t.stageSpans(), items...)
}

// stageSpans returns the recorded stage spans in record order. The
// result aliases the trace's storage (with no spare capacity, so an
// append copies); treat it as read-only.
func (t *Trace) stageSpans() []Span {
	n := min(t.nextStage.Load(), maxStageSpans)
	return t.stages[:n:n]
}

// StageBreakdown sums the top-level (depth 0) stage durations by name,
// in first-entry order — the per-stage attribution the access log
// prints. Kernel item spans and nested stages are excluded, so the
// summed durations approximate (and never double-count) the total.
func (t *Trace) StageBreakdown() (names []string, durs []time.Duration) {
	idx := make(map[string]int)
	for _, s := range t.stageSpans() {
		if s.Depth != 0 {
			continue
		}
		i, ok := idx[s.Name]
		if !ok {
			i = len(names)
			idx[s.Name] = i
			names = append(names, s.Name)
			durs = append(durs, 0)
		}
		durs[i] += s.Dur
	}
	return names, durs
}

// StageDur sums every span (any depth) named name — e.g. the admission
// queue wait regardless of where admission ran.
func (t *Trace) StageDur(name string) time.Duration {
	var d time.Duration
	for _, s := range t.stageSpans() {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d
}

// Ring is a fixed-size lock-free buffer of the most recently completed
// traces. Writers claim a slot with one atomic add and publish the
// finished trace with an atomic pointer store; readers load pointers
// and get fully written traces (the store happens after Finish, and the
// atomic load orders the reader after every prior write to the trace).
type Ring struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

// NewRing returns a ring holding the last n traces (minimum 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{slots: make([]atomic.Pointer[Trace], n)}
}

// Add publishes a finished trace, overwriting the oldest slot.
func (r *Ring) Add(t *Trace) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// Recent returns up to n of the stored traces, most recent first
// (n <= 0 means all). Under concurrent writes a slot may be observed
// either before or after replacement; each observed trace is complete
// either way.
func (r *Ring) Recent(n int) []*Trace {
	total := r.next.Load()
	size := uint64(len(r.slots))
	if total > size {
		total = size
	}
	if n <= 0 || uint64(n) > total {
		n = int(total)
	}
	out := make([]*Trace, 0, n)
	// Walk backwards from the most recently claimed slot.
	head := r.next.Load()
	for i := uint64(0); i < size && len(out) < n; i++ {
		idx := (head - 1 - i) % size
		if t := r.slots[idx].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Inflight tracks live requests for /ops/requests. A mutex-guarded map
// is plenty: entries churn at request rate, far below span rate.
type Inflight struct {
	mu   sync.Mutex
	m    map[string]*Trace
	seen uint64
}

// NewInflight returns an empty registry.
func NewInflight() *Inflight { return &Inflight{m: make(map[string]*Trace)} }

// Add registers a started trace.
func (f *Inflight) Add(t *Trace) {
	f.mu.Lock()
	f.m[t.RequestID] = t
	f.seen++
	f.mu.Unlock()
}

// Remove deregisters a finished trace.
func (f *Inflight) Remove(t *Trace) {
	f.mu.Lock()
	delete(f.m, t.RequestID)
	f.mu.Unlock()
}

// Snapshot returns the live traces in start order.
func (f *Inflight) Snapshot() []*Trace {
	f.mu.Lock()
	out := make([]*Trace, 0, len(f.m))
	for _, t := range f.m {
		out = append(out, t)
	}
	f.mu.Unlock()
	sortTracesByStart(out)
	return out
}

func sortTracesByStart(ts []*Trace) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Start.Before(ts[j-1].Start); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
