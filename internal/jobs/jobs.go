// Package jobs is the async job subsystem behind sfcserved's /jobs
// API: a bounded-lifecycle job queue with two priority lanes.
//
// Submit appends a job to its lane's FIFO, and a fixed pool of runners
// executes jobs one at a time as they arrive. Nothing waits for
// company: the work a job could share with others of its volume
// generation (converted views, prepared volumes, coarse subsamples)
// is shared by the caller's per-generation cache, which pays for it
// once per stored generation rather than once per group of jobs.
//
// Two lanes order dispatch, not execution: a runner always takes the
// oldest interactive job before any bulk job, so interactive jobs
// overtake bulk sweeps at every scheduling point, but a job already
// running is never interrupted (it still honors its own context's
// cancellation).
//
// Every job carries an ordered event log (queued, progressive events
// emitted by Run, then exactly one terminal event). Subscribers get the
// full past replayed and then live delivery, so an SSE stream attached
// late — or re-attached after a disconnect — sees the same sequence as
// one attached at submit time.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Lane is a scheduling priority class.
type Lane int

const (
	// Interactive jobs are dispatched before bulk jobs at every
	// scheduling decision.
	Interactive Lane = iota
	// Bulk jobs run when no interactive job is waiting.
	Bulk
	laneCount
)

// String names the lane.
func (l Lane) String() string {
	switch l {
	case Interactive:
		return "interactive"
	case Bulk:
		return "bulk"
	}
	return fmt.Sprintf("Lane(%d)", int(l))
}

// ParseLane maps a lane name to its Lane; "" defaults to Interactive.
func ParseLane(s string) (Lane, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "bulk":
		return Bulk, nil
	}
	return 0, fmt.Errorf("jobs: unknown priority %q (want interactive or bulk)", s)
}

// State is a job's lifecycle position. Terminal states are Done,
// Failed, and Cancelled; a job reaches exactly one of them exactly
// once.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"    // submitted, waiting for a runner
	StateRunning   State = "running"   // Run executing
	StateDone      State = "done"      // Run returned nil
	StateFailed    State = "failed"    // Run returned an error
	StateCancelled State = "cancelled" // cancelled by the caller
)

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one entry in a job's ordered event log. Type is the job
// state for lifecycle events, or a caller-chosen name for progressive
// events emitted by Run (sfcserved emits "coarse"). Data is the
// event's JSON payload, nil when there is none.
type Event struct {
	Seq  int             `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Spec describes one job submission.
type Spec struct {
	// Lane selects the scheduling priority.
	Lane Lane
	// Run executes the job. ctx is the job's own context (cancelled by
	// Job.Cancel or manager drain expiry). Run may emit progressive
	// events via Job.Emit. A nil return completes the job; a context
	// error cancels or fails it depending on who cancelled.
	Run func(ctx context.Context, j *Job) error
	// Done, when non-nil, is called exactly once with the job's
	// terminal state, just before that state and its terminal event
	// become visible — the hook sfcserved uses to close out the job's
	// trace and metrics, so whoever sees the job end finds them closed.
	Done func(j *Job, st State)
}

// Times are a job's lifecycle timestamps; zero values mean the phase
// was never reached.
type Times struct {
	Submitted time.Time
	Started   time.Time // Run began
	Finished  time.Time // terminal state reached
}

// Job is one submitted unit of work. All exported methods are safe for
// concurrent use.
type Job struct {
	// ID is the job's handle in the API; random, process-unique.
	ID string

	spec   Spec
	mgr    *Manager
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	err      string
	times    Times
	events   []Event
	subs     map[chan Event]struct{}
	userCncl bool // Cancel() was called (vs ctx dying for another reason)
	// finishing is set once the terminal transition is claimed, before
	// the Done hook runs and the state turns terminal; it stays set.
	finishing bool
	result    any
	done      chan struct{}
}

// Status is a job's JSON snapshot for the GET /jobs/{id} endpoint.
type Status struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Lane   string `json:"lane"`
	Error  string `json:"error,omitempty"`
	Events int    `json:"events"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		State:       j.state,
		Lane:        j.spec.Lane.String(),
		Error:       j.err,
		Events:      len(j.events),
		SubmittedAt: j.times.Submitted,
	}
	if !j.times.Started.IsZero() {
		t := j.times.Started
		st.StartedAt = &t
	}
	if !j.times.Finished.IsZero() {
		t := j.times.Finished
		st.FinishedAt = &t
	}
	return st
}

// Times returns the lifecycle timestamps recorded so far.
func (j *Job) Times() Times {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.times
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure message for a failed job, "" otherwise.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// SetResult attaches the job's final artifact. The manager treats it
// as opaque; it is released when the job is garbage-collected.
func (j *Job) SetResult(v any) {
	j.mu.Lock()
	j.result = v
	j.mu.Unlock()
}

// Result returns the artifact attached by SetResult, or nil.
func (j *Job) Result() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Cancel requests cancellation. A queued job transitions to Cancelled
// immediately and leaves its lane (its Run never starts); a running job
// has its context cancelled and reaches Cancelled when Run returns.
// Cancel on a terminal or finishing job is a no-op.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.finishing {
		j.mu.Unlock()
		return
	}
	j.userCncl = true
	queued := j.state != StateRunning
	j.finishing = queued // claimed here, so no runner starts it
	j.mu.Unlock()
	j.cancel()
	if queued {
		j.mgr.dequeue(j)
		j.finish(StateCancelled, "cancelled before start")
	}
}

// Emit publishes a progressive event with the given type and payload
// (marshalled to JSON; a marshal failure publishes the event with a
// null payload rather than dropping it). For use by Run.
func (j *Job) Emit(typ string, data any) {
	raw, err := json.Marshal(data)
	if err != nil {
		raw = []byte("null")
	}
	j.mu.Lock()
	j.publishLocked(typ, raw)
	j.mu.Unlock()
}

// subBuffer is each subscriber's channel depth. A job's event count is
// small (lifecycle + a handful of progressive events), so a full
// channel means a subscriber stopped draining; rather than block the
// runner, the event is dropped for that subscriber (it still lands in
// the log, so a re-subscribe replays it).
const subBuffer = 32

// publishLocked appends an event to the log and fans it out. Callers
// hold j.mu.
func (j *Job) publishLocked(typ string, data json.RawMessage) {
	ev := Event{Seq: len(j.events), Type: typ, Data: data}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe returns the events published so far and a channel carrying
// subsequent ones. The caller must invoke the returned cancel func
// when done; after the job's terminal event the channel stops
// receiving (terminal events are the last ever published).
func (j *Job) Subscribe() (past []Event, ch <-chan Event, cancel func()) {
	c := make(chan Event, subBuffer)
	j.mu.Lock()
	past = append([]Event(nil), j.events...)
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[c] = struct{}{}
	j.mu.Unlock()
	return past, c, func() {
		j.mu.Lock()
		delete(j.subs, c)
		j.mu.Unlock()
	}
}

// finish performs the single terminal transition, called once, by the
// job's runner or by Cancel on a queued job. It claims the transition
// (Cancel and the runners then leave the job alone), fires the Done
// hook, then marks the state, bumps the manager's terminal counter and
// publishes the terminal event.
func (j *Job) finish(st State, errMsg string) {
	j.mu.Lock()
	j.finishing = true
	j.mu.Unlock()
	if j.spec.Done != nil {
		j.spec.Done(j, st)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = st
	j.err = errMsg
	j.times.Finished = time.Now()
	switch st {
	case StateDone:
		j.mgr.doneN.Add(1)
	case StateFailed:
		j.mgr.failed.Add(1)
	case StateCancelled:
		j.mgr.cancelled.Add(1)
	}
	var data json.RawMessage
	if errMsg != "" {
		data, _ = json.Marshal(map[string]string{"error": errMsg}) //nolint:errcheck // map[string]string never fails
	}
	j.publishLocked(string(st), data)
	close(j.done)
}

// Config tunes the manager. Zero values take the defaults noted on
// each field.
type Config struct {
	// Runners is how many jobs execute concurrently (default 2). The
	// kernel-level admission gate is the caller's (sfcserved acquires
	// its run slots inside Run).
	Runners int
	// Keep bounds how many terminal jobs stay queryable (default 128);
	// the oldest are dropped first. Live jobs are never dropped.
	Keep int
}

func (c Config) withDefaults() Config {
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.Keep <= 0 {
		c.Keep = 128
	}
	return c
}

// Stats is a point-in-time snapshot of the manager's counters and
// queue state.
type Stats struct {
	Submitted  uint64 // jobs accepted
	Done       uint64 // jobs completed successfully
	Failed     uint64 // jobs failed (incl. drain expiry)
	Cancelled  uint64 // jobs cancelled
	Dispatched uint64 // jobs a runner started
	Pending    int    // jobs waiting for a runner
	Running    int    // jobs currently executing
}

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = errors.New("jobs: manager is draining")

// Manager owns the two lane queues and the runner pool. Construct with
// New; call Drain exactly once to shut down.
type Manager struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	order    []string // insertion order, for GC
	queue    [laneCount][]*Job
	running  int
	draining bool

	submitted  atomic.Uint64
	doneN      atomic.Uint64
	failed     atomic.Uint64
	cancelled  atomic.Uint64
	dispatched atomic.Uint64

	wg sync.WaitGroup
}

// New starts a manager with cfg.Runners executor goroutines.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*Job),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Runners; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m
}

// newID returns a random job handle.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("jobs: rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Submit appends a job to its lane's queue. The returned Job is
// immediately queryable and subscribable; its "queued" event is
// already published. Fails with ErrDraining after Drain begins.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if spec.Run == nil {
		return nil, errors.New("jobs: Spec.Run must be non-nil")
	}
	jctx, jcancel := context.WithCancel(m.ctx)
	j := &Job{
		ID:     newID(),
		spec:   spec,
		mgr:    m,
		ctx:    jctx,
		cancel: jcancel,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	j.times.Submitted = time.Now()
	j.publishLocked(string(StateQueued), nil) // j is not shared yet

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		jcancel()
		return nil, ErrDraining
	}
	m.submitted.Add(1)
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.gcLocked()
	m.queue[spec.Lane] = append(m.queue[spec.Lane], j)
	m.cond.Broadcast()
	return j, nil
}

// dequeue drops a job cancelled while queued from its lane, so it no
// longer counts as pending. A runner that popped it first skips it.
func (m *Manager) dequeue(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queue[j.spec.Lane]
	if i := slices.Index(q, j); i >= 0 {
		m.queue[j.spec.Lane] = slices.Delete(q, i, i+1)
		m.cond.Broadcast() // Drain waits for the queues to empty
	}
}

// Get returns the job with the given ID while it is still retained.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	return j, ok
}

// Stats snapshots the counters and queue depths.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	pending, running := m.pendingLocked(), m.running
	m.mu.Unlock()
	return Stats{
		Submitted:  m.submitted.Load(),
		Done:       m.doneN.Load(),
		Failed:     m.failed.Load(),
		Cancelled:  m.cancelled.Load(),
		Dispatched: m.dispatched.Load(),
		Pending:    pending,
		Running:    running,
	}
}

// pendingLocked counts the queued jobs of both lanes. Callers hold
// m.mu.
func (m *Manager) pendingLocked() int {
	return len(m.queue[Interactive]) + len(m.queue[Bulk])
}

// gcLocked drops the oldest terminal jobs past the Keep bound. Callers
// hold m.mu.
func (m *Manager) gcLocked() {
	terminal := 0
	for _, id := range m.order {
		if m.jobs[id] != nil && m.jobs[id].State().Terminal() {
			terminal++
		}
	}
	if terminal <= m.cfg.Keep {
		return
	}
	keep := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j == nil {
			continue
		}
		if terminal > m.cfg.Keep && j.State().Terminal() {
			delete(m.jobs, id)
			terminal--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}

// runner executes queued jobs one at a time, interactive lane first,
// until the queues are empty and the manager is draining.
func (m *Manager) runner() {
	defer m.wg.Done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		j := m.popLocked()
		if j == nil {
			if m.draining {
				return
			}
			m.cond.Wait()
			continue
		}
		m.running++
		m.mu.Unlock()
		m.run(j)
		m.mu.Lock()
		m.running--
		m.cond.Broadcast() // Drain waits on running==0
	}
}

// popLocked takes the next queued job, preferring the interactive
// lane. Callers hold m.mu.
func (m *Manager) popLocked() *Job {
	for lane := Lane(0); lane < laneCount; lane++ {
		if q := m.queue[lane]; len(q) > 0 {
			m.queue[lane] = q[1:]
			return q[0]
		}
	}
	return nil
}

// run executes one job unless it was cancelled while queued.
func (m *Manager) run(j *Job) {
	j.mu.Lock()
	if j.finishing {
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.times.Started = time.Now()
	j.mu.Unlock()
	m.dispatched.Add(1)

	err := j.spec.Run(j.ctx, j)
	switch {
	case err == nil:
		j.finish(StateDone, "")
	case errors.Is(err, context.Canceled) && j.cancelRequested():
		j.finish(StateCancelled, "cancelled")
	default:
		j.finish(StateFailed, err.Error())
	}
}

// cancelRequested reports whether Cancel was the reason the job's
// context died (vs drain expiry or a deadline).
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCncl
}

// Drain shuts the manager down: new submissions fail with ErrDraining
// and queued work runs to completion. If ctx expires first, the manager context is cancelled —
// running kernels abort through their job contexts and the affected
// jobs terminate as failed — and Drain returns ctx.Err(). Runner
// goroutines are joined before returning in either case.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.mu.Lock()
		for m.pendingLocked() > 0 || m.running > 0 {
			m.cond.Wait()
		}
		m.mu.Unlock()
		close(done)
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Abort running kernels; their jobs fail, runners then find the
		// queues drained (remaining queued jobs fail fast on dead
		// contexts via their Run implementations or terminate normally).
		m.cancel()
		<-done
	}
	m.cancel()
	m.wg.Wait()
	return err
}
