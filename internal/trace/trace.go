// Package trace is the simulator's structured event tracer: components
// emit (cycle, component, event, detail) records — points and *spans*
// (records with a duration, e.g. a callback's life from schedule to
// completion) — into a bounded ring buffer that can be filtered and
// rendered, and optionally stream into a structured Sink (export.go:
// JSONL, Chrome trace-event/Perfetto). Tracing is optional and zero-cost
// when disabled (a nil *Tracer ignores all emits), so it can stay wired
// into hot paths.
//
// Typical use:
//
//	tr := trace.New(4096)
//	tr.Filter("cb.*", "l3.*")
//	h.AttachTracer(tr)
//	... run ...
//	fmt.Print(tr.Dump())
//
// Or streaming to Perfetto:
//
//	chrome := trace.NewChrome(f)
//	tr.AttachSink(chrome.Process(0))
//	... run ...
//	chrome.Close()
package trace

import (
	"fmt"
	"strings"
)

// Event is one trace record. Dur == 0 is an instant event; Dur > 0 is a
// span starting at Cycle and covering [Cycle, Cycle+Dur).
type Event struct {
	Cycle     uint64
	Dur       uint64 // span duration in cycles (0 = instant)
	Component string // e.g. "l2.3", "engine.0", "dram.1"
	Kind      string // e.g. "miss", "cb.onMiss", "evict"
	Detail    string
}

func (e Event) String() string {
	if e.Dur > 0 {
		return fmt.Sprintf("%10d  %-10s %-16s [%d cyc] %s", e.Cycle, e.Component, e.Kind, e.Dur, e.Detail)
	}
	return fmt.Sprintf("%10d  %-10s %-16s %s", e.Cycle, e.Component, e.Kind, e.Detail)
}

// Sink receives every recorded event as it is emitted (export.go).
// Implementations must tolerate events arriving with non-monotonic start
// cycles: spans are emitted at completion time, so a long span can start
// before an already-emitted short one.
type Sink interface {
	Emit(e Event)
	Close() error
}

// Tracer collects events into a ring buffer and forwards them to an
// optional sink. A nil Tracer is valid and drops everything, so callers
// never need nil checks beyond the one in Emit.
type Tracer struct {
	ring    []Event
	next    int
	wrapped bool
	total   uint64
	filters []string
	sink    Sink
	minSpan uint64
}

// New returns a tracer holding the most recent `capacity` events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Filter restricts recording to events whose Kind matches one of the
// given patterns. A pattern matches exactly, or by prefix when it ends
// in "*" ("cb.*" matches "cb.onMiss"). No filters = record everything.
func (t *Tracer) Filter(patterns ...string) {
	if t == nil {
		return
	}
	t.filters = append(t.filters, patterns...)
}

// AttachSink streams all recorded events (post-filter) into s, in
// addition to the ring buffer. Closing the sink is the caller's job.
func (t *Tracer) AttachSink(s Sink) {
	if t == nil {
		return
	}
	t.sink = s
}

// SetMinSpan drops spans shorter than n cycles (instant events are
// unaffected). Demand accesses that hit close to the core emit very
// short spans in enormous numbers; a threshold around the L2 latency
// keeps traces focused on the shared level, engines, and DRAM.
func (t *Tracer) SetMinSpan(n uint64) {
	if t == nil {
		return
	}
	t.minSpan = n
}

func (t *Tracer) matches(kind string) bool {
	if len(t.filters) == 0 {
		return true
	}
	for _, p := range t.filters {
		if strings.HasSuffix(p, "*") {
			if strings.HasPrefix(kind, p[:len(p)-1]) {
				return true
			}
		} else if kind == p {
			return true
		}
	}
	return false
}

// Emit records an instant event. Safe on a nil Tracer.
func (t *Tracer) Emit(cycle uint64, component, kind, detail string) {
	if t == nil || !t.matches(kind) {
		return
	}
	t.record(Event{Cycle: cycle, Component: component, Kind: kind, Detail: detail})
}

// EmitSpan records a span covering [start, end). Spans shorter than the
// SetMinSpan threshold are dropped. Safe on a nil Tracer.
func (t *Tracer) EmitSpan(start, end uint64, component, kind, detail string) {
	if t == nil || !t.matches(kind) {
		return
	}
	dur := uint64(0)
	if end > start {
		dur = end - start
	}
	if dur < t.minSpan {
		return
	}
	t.record(Event{Cycle: start, Dur: dur, Component: component, Kind: kind, Detail: detail})
}

func (t *Tracer) record(e Event) {
	t.total++
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	if t.sink != nil {
		t.sink.Emit(e)
	}
}

// Emitf is Emit with a formatted detail string. The formatting cost is
// paid only when the event would be recorded.
func (t *Tracer) Emitf(cycle uint64, component, kind, format string, args ...interface{}) {
	if t == nil || !t.matches(kind) {
		return
	}
	t.Emit(cycle, component, kind, fmt.Sprintf(format, args...))
}

// Events returns the buffered events in true emit order: after the ring
// wraps, the oldest retained event comes first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		out := make([]Event, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Total returns how many events were recorded (including ones that have
// rotated out of the ring).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Retained returns how many events the buffer currently holds.
func (t *Tracer) Retained() int {
	if t == nil {
		return 0
	}
	if t.wrapped {
		return len(t.ring)
	}
	return t.next
}

// Dump renders the buffered events one per line, oldest first, headed by
// a summary of how many events were recorded versus retained — after the
// ring wraps, the dropped count says how much history rotated out.
func (t *Tracer) Dump() string {
	var b strings.Builder
	total, retained := t.Total(), t.Retained()
	fmt.Fprintf(&b, "# trace: %d events total, %d retained", total, retained)
	if dropped := total - uint64(retained); dropped > 0 {
		fmt.Fprintf(&b, " (%d oldest dropped)", dropped)
	}
	b.WriteByte('\n')
	for _, e := range t.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CountByKind aggregates buffered events per kind.
func (t *Tracer) CountByKind() map[string]int {
	out := map[string]int{}
	for _, e := range t.Events() {
		out[e.Kind]++
	}
	return out
}
