package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// This file implements the structured trace exporters: newline-delimited
// JSON (one event per line, for jq/pandas-style analysis) and the Chrome
// trace-event format that chrome://tracing and Perfetto load directly.
//
// Both exporters are multi-process: an experiment can run several
// simulated systems (baseline, UB, täkō, ideal), and each run registers
// itself as one "process" whose components become named tracks. Process
// views are obtained with Process(pid); SetProcessName labels them once
// the run's variant is known. Each call to an exporter takes an internal
// lock, so distinct runs may emit concurrently; events within one run
// arrive in deterministic order because the simulation kernel is
// single-threaded.

// MultiSink is implemented by both exporters: a shared output file
// receiving events from several simulated systems.
type MultiSink interface {
	// Process returns the Sink view for one simulated system. Calling
	// it twice with the same pid returns equivalent views.
	Process(pid int) Sink
	// SetProcessName labels a process (e.g. "phi/tako") in the output.
	SetProcessName(pid int, name string)
	// Close flushes and finalizes the output.
	Close() error
}

// jsonlLine is the wire format of one JSONL event.
type jsonlLine struct {
	Run       int    `json:"run"`
	Cycle     uint64 `json:"cycle"`
	Dur       uint64 `json:"dur,omitempty"`
	Component string `json:"component"`
	Kind      string `json:"kind"`
	Detail    string `json:"detail,omitempty"`
}

// jsonlLabel is the wire format of a run-label record.
type jsonlLabel struct {
	Run   int    `json:"run"`
	Label string `json:"label"`
}

// JSONL streams events as newline-delimited JSON objects.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONL returns a JSONL exporter writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

func (j *JSONL) writeLine(v interface{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(b); err != nil {
		j.err = err
		return
	}
	j.err = j.w.WriteByte('\n')
}

// Process returns the Sink view for run pid.
func (j *JSONL) Process(pid int) Sink { return &jsonlProc{j: j, pid: pid} }

// SetProcessName records a {"run":pid,"label":name} line.
func (j *JSONL) SetProcessName(pid int, name string) {
	j.writeLine(jsonlLabel{Run: pid, Label: name})
}

// Close flushes the output.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); j.err == nil {
		j.err = err
	}
	return j.err
}

type jsonlProc struct {
	j   *JSONL
	pid int
}

func (p *jsonlProc) Emit(e Event) {
	p.j.writeLine(jsonlLine{
		Run: p.pid, Cycle: e.Cycle, Dur: e.Dur,
		Component: e.Component, Kind: e.Kind, Detail: e.Detail,
	})
}

func (p *jsonlProc) Close() error { return nil }

// Chrome streams events in the Chrome trace-event JSON format, loadable
// by chrome://tracing and https://ui.perfetto.dev. Each simulated system
// is a process; each component (core.N, l2.N, l3.N, engine.N, dram.N,
// noc) is a named thread, so it renders as its own track. Spans become
// complete ("X") events — a callback's schedule → execute → fill life
// nests visually on its engine track — and instant events become
// thread-scoped "i" events. Simulated cycles are reported as
// microseconds, so 1 ms of viewer time is 1000 cycles.
type Chrome struct {
	mu      sync.Mutex
	w       *bufio.Writer
	err     error
	started bool
	closed  bool
	// tids assigns one viewer thread per (pid, component), in
	// first-seen order (deterministic given a deterministic run).
	tids    map[int]map[string]int
	nextTid map[int]int
}

// NewChrome returns a Chrome trace-event exporter writing to w.
func NewChrome(w io.Writer) *Chrome {
	return &Chrome{
		w:       bufio.NewWriter(w),
		tids:    make(map[int]map[string]int),
		nextTid: make(map[int]int),
	}
}

// Process returns the Sink view for run pid.
func (c *Chrome) Process(pid int) Sink { return &chromeProc{c: c, pid: pid} }

// SetProcessName emits process_name metadata for run pid.
func (c *Chrome) SetProcessName(pid int, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record(fmt.Sprintf(
		`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
		pid, quote(name)))
}

// tid returns the viewer thread for (pid, component), emitting
// thread_name metadata the first time a component appears. Caller holds
// the lock.
func (c *Chrome) tid(pid int, component string) int {
	m, ok := c.tids[pid]
	if !ok {
		m = make(map[string]int)
		c.tids[pid] = m
	}
	if t, ok := m[component]; ok {
		return t
	}
	t := c.nextTid[pid]
	c.nextTid[pid] = t + 1
	m[component] = t
	c.record(fmt.Sprintf(
		`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
		pid, t, quote(component)))
	// Keep track order stable in the viewer regardless of first-seen
	// order within a kind: sort by component name.
	c.record(fmt.Sprintf(
		`{"name":"thread_sort_index","ph":"M","pid":%d,"tid":%d,"args":{"sort_index":%d}}`,
		pid, t, sortIndex(component)))
	return t
}

// sortIndex orders tracks by hierarchy layer, then instance: cores,
// caches, engines, NoC, DRAM, everything else.
func sortIndex(component string) int {
	base, inst := component, 0
	if i := strings.LastIndexByte(component, '.'); i >= 0 {
		base = component[:i]
		fmt.Sscanf(component[i+1:], "%d", &inst)
	}
	layer := map[string]int{
		"core": 0, "l1": 1, "el1": 2, "l2": 3, "l3": 4,
		"engine": 5, "noc": 6, "dram": 7,
	}
	l, ok := layer[base]
	if !ok {
		l = 8
	}
	return l*1024 + inst
}

// record appends one raw JSON event object. Caller holds the lock.
func (c *Chrome) record(obj string) {
	if c.err != nil || c.closed {
		return
	}
	if !c.started {
		if _, err := c.w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
			c.err = err
			return
		}
		c.started = true
	} else {
		if _, err := c.w.WriteString(",\n"); err != nil {
			c.err = err
			return
		}
	}
	if _, err := c.w.WriteString(obj); err != nil {
		c.err = err
	}
}

// Close terminates the JSON document and flushes.
func (c *Chrome) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	if !c.started {
		// No events: still produce a valid document with an empty
		// traceEvents array (the blank line between [ and ] is fine).
		c.record("")
	}
	if c.err == nil {
		if _, err := c.w.WriteString("\n]}\n"); err != nil {
			c.err = err
		}
	}
	c.closed = true
	if err := c.w.Flush(); c.err == nil {
		c.err = err
	}
	return c.err
}

type chromeProc struct {
	c   *Chrome
	pid int
}

func (p *chromeProc) Emit(e Event) {
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	tid := c.tid(p.pid, e.Component)
	cat := e.Kind
	if i := strings.IndexByte(cat, '.'); i > 0 {
		cat = cat[:i]
	}
	args := ""
	if e.Detail != "" {
		args = fmt.Sprintf(`,"args":{"detail":%s}`, quote(e.Detail))
	}
	if e.Dur > 0 {
		c.record(fmt.Sprintf(
			`{"name":%s,"cat":%s,"ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d%s}`,
			quote(e.Kind), quote(cat), e.Cycle, e.Dur, p.pid, tid, args))
	} else {
		c.record(fmt.Sprintf(
			`{"name":%s,"cat":%s,"ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d%s}`,
			quote(e.Kind), quote(cat), e.Cycle, p.pid, tid, args))
	}
}

func (p *chromeProc) Close() error { return nil }

// quote JSON-encodes a string.
func quote(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `"?"`
	}
	return string(b)
}

// SinkFor returns the named exporter ("jsonl" or "chrome") writing to w.
func SinkFor(format string, w io.Writer) (MultiSink, error) {
	switch format {
	case "jsonl":
		return NewJSONL(w), nil
	case "chrome":
		return NewChrome(w), nil
	default:
		return nil, fmt.Errorf("trace: unknown format %q (want jsonl or chrome)", format)
	}
}

// SortEvents orders events by (start cycle, component, kind) — a stable
// order for golden-file tests over small event sets.
func SortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Cycle != evs[j].Cycle {
			return evs[i].Cycle < evs[j].Cycle
		}
		if evs[i].Component != evs[j].Component {
			return evs[i].Component < evs[j].Component
		}
		return evs[i].Kind < evs[j].Kind
	})
}
