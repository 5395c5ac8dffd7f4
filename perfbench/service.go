package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// service is one sfcserved process on loopback, with its access log
// (stderr) captured to a file in the work dir.
type service struct {
	cmd      *exec.Cmd
	api, ops string // base URLs
	logPath  string
	client   *http.Client
	traceSeq uint64
	// lastTrace is the trace id of the latest request sent through do.
	lastTrace string
}

var servingRE = regexp.MustCompile(`serving on (http://\S+) \(ops (http://\S+)\)`)

// startService spawns sfcserved with ephemeral ports plus args and
// waits until /healthz answers.
func startService(bin, logPath string, args ...string) (*service, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-ops", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &service{cmd: cmd, logPath: logPath, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if b, _ := os.ReadFile(logPath); b != nil {
			if m := servingRE.FindSubmatch(b); m != nil {
				s.api, s.ops = string(m[1]), string(m[2])
				if resp, err := s.client.Get(s.api + "/healthz"); err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						return s, nil
					}
				}
			}
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop()
	b, _ := os.ReadFile(logPath)
	return nil, fmt.Errorf("sfcserved did not come up: %s", tail(string(b), 400))
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// stop drains the service with SIGTERM and waits for it; a service that
// has not exited after ten seconds is killed.
func (s *service) stop() error {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("sfcserved did not drain; killed")
	}
}

func (s *service) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// reply is one completed HTTP exchange as the client saw it.
type reply struct {
	status  int
	header  http.Header
	body    []byte
	latency time.Duration
	trace   string // trace id sent in traceparent
}

// do sends one request carrying a fresh traceparent and reads the whole
// body; latency runs from send to the last body byte.
func (s *service) do(method, url string, body []byte, hdr map[string]string) (*reply, error) {
	s.traceSeq++
	trace := fmt.Sprintf("%016x%016x", uint64(0x5fcbe4c4)<<32|uint64(os.Getpid()), s.traceSeq)
	s.lastTrace = trace
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("traceparent", "00-"+trace+"-"+fmt.Sprintf("%016x", s.traceSeq)+"-01")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: b, latency: time.Since(t0), trace: trace}, nil
}

func (s *service) postJSON(path string, v any, hdr map[string]string) (*reply, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return s.do("POST", s.api+path, b, hdr)
}

// sseEvent is one Server-Sent Event with the client time it arrived.
type sseEvent struct {
	typ  string
	data []byte
	at   time.Duration // since the watch began
}

// watch streams GET /jobs/{id}/events until the terminal event.
func (s *service) watch(id string) ([]sseEvent, error) {
	t0 := time.Now()
	resp, err := s.client.Get(s.api + "/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	var evs []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && cur.typ != "":
			cur.at = time.Since(t0)
			evs = append(evs, cur)
			switch cur.typ {
			case "done", "failed", "cancelled":
				return evs, nil
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		return evs, err
	}
	return evs, fmt.Errorf("event stream ended without a terminal event")
}

// submitJob posts to path and watches the job to its end. first is the
// time from submit to the first event of type firstType.
func (s *service) submitJob(path string, body any, firstType string) (evs []sseEvent, first, total time.Duration, err error) {
	t0 := time.Now()
	r, err := s.postJSON(path, body, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	if r.status != http.StatusAccepted {
		return nil, 0, 0, fmt.Errorf("%s: status %d: %s", path, r.status, tail(string(r.body), 200))
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(r.body, &sub); err != nil {
		return nil, 0, 0, err
	}
	lead := time.Since(t0)
	evs, err = s.watch(sub.ID)
	if err != nil {
		return evs, 0, 0, err
	}
	last := evs[len(evs)-1]
	if last.typ != "done" {
		return evs, 0, 0, fmt.Errorf("job %s ended %s: %s", sub.ID, last.typ, last.data)
	}
	for _, e := range evs {
		if e.typ == firstType {
			first = lead + e.at
			break
		}
	}
	return evs, first, lead + last.at, nil
}

// scrape reads the ops port's /metrics JSON as flat numbers: counters
// by total, histograms as name.count / name.sum_s, gauges as is.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.ops + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
			continue
		}
		var m struct {
			Type  string  `json:"type"`
			Total float64 `json:"total"`
			Count float64 `json:"count"`
			Sum   float64 `json:"sum_s"`
		}
		if json.Unmarshal(v, &m) == nil {
			switch m.Type {
			case "counter":
				out[k] = m.Total
			case "histogram":
				out[k+".count"], out[k+".sum_s"] = m.Count, m.Sum
			}
		}
	}
	return out, nil
}

// serverStages fetches the server's span tree for trace and returns
// each stage's self time (nested stages subtracted) plus the request
// total, both in seconds. Kernel worker spans are not stages.
func (s *service) serverStages(trace, route string) (map[string]float64, float64, error) {
	resp, err := s.client.Get(s.ops + "/ops/trace/recent?n=4")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, 0, err
	}
	pid := -1
	for _, e := range doc.TraceEvents {
		if e.Cat == "request" && e.Name == route && e.Args["trace_id"] == trace {
			pid = e.Pid
		}
	}
	if pid < 0 {
		return nil, 0, fmt.Errorf("trace %s not in the server's recent ring", trace)
	}
	us := func(x float64) time.Duration { return time.Duration(x * 1e3) }
	var spans []span
	for _, e := range doc.TraceEvents {
		if e.Pid != pid || e.Ph != "X" || (e.Cat != "request" && e.Cat != "stage") {
			continue
		}
		spans = append(spans, span{Name: e.Name, Layer: e.Cat, Start: us(e.Ts), End: us(e.Ts + e.Dur), Parent: -1})
	}
	nestSpans(spans)
	self := selfTimes(spans)
	out := map[string]float64{}
	total := 0.0
	for i, sp := range spans {
		if sp.Layer == "request" {
			total = (sp.End - sp.Start).Seconds()
			out["request"] += self[i].Seconds()
			continue
		}
		out[sp.Name] += self[i].Seconds()
	}
	return out, total, nil
}

// nestSpans sets each span's parent to the tightest other span whose
// interval contains it.
func nestSpans(spans []span) {
	for i := range spans {
		best := -1
		for j := range spans {
			if i == j || spans[j].Start > spans[i].Start || spans[j].End < spans[i].End {
				continue
			}
			if spans[j].End-spans[j].Start == spans[i].End-spans[i].Start && j > i {
				continue // identical intervals: the earlier one is the parent
			}
			if best < 0 || spans[j].End-spans[j].Start < spans[best].End-spans[best].Start {
				best = j
			}
		}
		spans[i].Parent = best
	}
}
