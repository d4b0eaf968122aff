package system

import (
	"encoding/json"
	"io"
	"sync"

	"tako/internal/hier"
	"tako/internal/sched"
	"tako/internal/stats"
	"tako/internal/trace"
)

// This file is the run window, the one process-wide run state. A
// command arms it once (StartCapture) and stops it when it is done
// (StopCapture). Every System built while it is armed joins it (New):
// the machine takes the window's Options, a pid, a tracer streaming into
// the window's sink, and the window's fast-forward progress gauges. Each
// run labels itself (LabelRun, called by the case studies once the
// study/variant is known) to build its metrics snapshot, and the window
// memoizes runs (Memo) so paired figures share one simulation.
// StopCapture closes the sink and hands back the run records for
// -metrics / -bench reports.
//
// Record construction is confined to the run: LabelRun reads only the
// run's own System and returns the record; nothing about a run's
// contents lives in shared state. Runs enter the shared capture log only
// through an explicit Submit, which the drivers call in deterministic
// (variant/sweep) order after any parallel fan-out has joined — so the
// capture log, and everything serialized from it, is byte-identical no
// matter how many simulations ran concurrently.
//
// When no window is armed — most tests and every library use — all of
// this is a single mutex-guarded nil check per System: machines get the
// zero Options, runs record nothing and nothing is memoized.

// CaptureConfig configures a run window.
type CaptureConfig struct {
	// Options arms checks and attribution on every machine built in the
	// window.
	Options Options
	// Workers is how many simulations run at once (-j); 0 means
	// GOMAXPROCS.
	Workers int
	// Sink receives every traced event; nil captures metrics only.
	Sink trace.MultiSink
	// TraceKinds filters traced event kinds ("cb.*", "dram.*"; empty =
	// all). TraceMinSpan drops spans shorter than that many cycles.
	TraceKinds   []string
	TraceMinSpan uint64
	// TraceCapacity sizes each run's in-memory ring (default 4096).
	TraceCapacity int
}

// RunRecord is one simulated system's captured run.
type RunRecord struct {
	Label        string         `json:"label"`
	Cycles       uint64         `json:"cycles"`
	Ops          uint64         `json:"ops"` // core + engine instrs + DRAM accesses
	KernelEvents uint64         `json:"kernel_events"`
	Cached       bool           `json:"cached,omitempty"` // served by the memo cache, not re-simulated
	Metrics      stats.Snapshot `json:"metrics"`
	// TxnEdges is the run's transaction state-machine coverage: every
	// observed (kind, from, to) edge with its hit count, in deterministic
	// order. Always captured — it is cheap, and reports/introspection
	// aggregate it into coverage heatmaps.
	TxnEdges []hier.TxnTransition `json:"txn_edges,omitempty"`
	// Slowest is the run's top-K slowest demand accesses with their
	// state timelines; present only when attribution armed a slow ring
	// (takosim/takoreport -slowest).
	Slowest []hier.SlowAccess `json:"slowest,omitempty"`
}

// CaptureResult is everything a window collected: the run records in
// submission order (deterministic — runs are submitted in variant/sweep
// order), plus the aggregate timing. ExecMS sums the wall-clock of
// simulations actually executed; cached submissions contribute no
// ExecMS, so ExecMS is the serial-time estimate a parallel run is
// compared against.
type CaptureResult struct {
	Runs   []RunRecord
	ExecMS float64
	Cached int
}

type capture struct {
	cfg     CaptureConfig
	result  CaptureResult
	systems int // machines built so far, which is also the next pid
	ff      hier.FFProgress
	memo    map[any]any // made when the first run is kept
}

var (
	captureMu sync.Mutex
	active    *capture
)

// StartCapture arms the run window for all Systems built until
// StopCapture. Panics if a window is already armed (windows don't nest;
// a command arms exactly one).
func StartCapture(cfg CaptureConfig) {
	captureMu.Lock()
	defer captureMu.Unlock()
	if active != nil {
		panic("system: capture already active")
	}
	active = &capture{cfg: cfg}
}

// StopCapture disarms the window, drops its memoized runs, closes the
// trace sink, and returns every submitted run in submission order.
func StopCapture() (CaptureResult, error) {
	captureMu.Lock()
	defer captureMu.Unlock()
	if active == nil {
		return CaptureResult{}, nil
	}
	res := active.result
	var err error
	if active.cfg.Sink != nil {
		err = active.cfg.Sink.Close()
	}
	active = nil
	return res, err
}

// Progress is a point-in-time view of the run window, served by the
// live introspection endpoint (/progress). All zero when no window is
// armed.
type Progress struct {
	Active    bool    `json:"active"`
	Systems   int     `json:"systems"`   // systems built this window
	Submitted int     `json:"submitted"` // run records submitted
	Cached    int     `json:"cached"`    // of those, served by the memo cache
	ExecMS    float64 `json:"exec_ms"`   // summed serial cost of executed runs
	// FF is the fast-forward progress of the window's machines.
	FF hier.FFView `json:"-"`
}

// CaptureProgress snapshots the window's counters.
func CaptureProgress() Progress {
	captureMu.Lock()
	defer captureMu.Unlock()
	if active == nil {
		return Progress{}
	}
	return Progress{
		Active:    true,
		Systems:   active.systems,
		Submitted: len(active.result.Runs),
		Cached:    active.result.Cached,
		ExecMS:    active.result.ExecMS,
		FF:        active.ff.Snapshot(),
	}
}

// CaptureRuns copies the run records submitted to the window so far
// (nil when no window is armed or nothing was submitted).
func CaptureRuns() []RunRecord {
	captureMu.Lock()
	defer captureMu.Unlock()
	if active == nil || len(active.result.Runs) == 0 {
		return nil
	}
	out := make([]RunRecord, len(active.result.Runs))
	copy(out, active.result.Runs)
	return out
}

// Workers returns how many simulations run at once: the window's
// Workers, or GOMAXPROCS when it leaves that 0 or no window is armed.
func Workers() int {
	captureMu.Lock()
	n := 0
	if active != nil {
		n = active.cfg.Workers
	}
	captureMu.Unlock()
	return sched.Workers(n)
}

// Memo returns what run returns, memoized under key in the window: the
// first request for a key runs it and, when it succeeds, keeps the value
// until StopCapture; later requests get the kept value with hit set.
// With no window armed, run runs every time. Concurrent first requests
// for one key may each run. key must be comparable.
func Memo(key any, run func() (any, error)) (v any, hit bool, err error) {
	captureMu.Lock()
	c := active
	if c != nil {
		v, hit = c.memo[key]
	}
	captureMu.Unlock()
	if hit {
		return v, true, nil
	}
	if v, err = run(); err != nil || c == nil {
		return v, false, err
	}
	captureMu.Lock()
	if c.memo == nil {
		c.memo = map[any]any{}
	}
	c.memo[key] = v
	captureMu.Unlock()
	return v, false, nil
}

// joinCapture enters a System being built into the window, if one is
// armed, and returns the window (nil when none is).
func (s *System) joinCapture() *capture {
	captureMu.Lock()
	defer captureMu.Unlock()
	if active == nil {
		return nil
	}
	s.capPid = active.systems
	active.systems++
	s.captured = true
	return active
}

// attachTracer streams s's events into the window's sink, if it has one.
func (s *System) attachTracer(c *capture) {
	if c == nil || c.cfg.Sink == nil {
		return
	}
	capacity := c.cfg.TraceCapacity
	if capacity == 0 {
		capacity = 4096
	}
	tr := trace.New(capacity)
	tr.Filter(c.cfg.TraceKinds...)
	tr.SetMinSpan(c.cfg.TraceMinSpan)
	tr.AttachSink(c.cfg.Sink.Process(s.capPid))
	s.H.AttachTracer(tr)
}

// LabelRun builds a completed run's record under the given label
// ("study/variant") — its cycle count, architectural op count, and a
// deterministic metrics snapshot — and names the run's track group in
// the trace output. The record is NOT entered into the capture log;
// the driver submits it (Submit) once fan-out order is known. Returns
// nil unless a capture armed before the System was built is still
// active.
func LabelRun(s *System, label string, ops uint64) *RunRecord {
	if !s.captured {
		return nil
	}
	captureMu.Lock()
	defer captureMu.Unlock()
	if active == nil {
		return nil
	}
	if active.cfg.Sink != nil {
		active.cfg.Sink.SetProcessName(s.capPid, label)
	}
	return &RunRecord{
		Label:        label,
		Cycles:       s.K.Now(),
		Ops:          ops,
		KernelEvents: s.K.Events(),
		Metrics:      s.H.Metrics.Snapshot(),
		TxnEdges:     s.H.TxnCoverage(),
		Slowest:      s.H.SlowestAccesses(),
	}
}

// Submit enters a run record into the active capture log. Drivers call
// it in deterministic variant/sweep order after parallel sections join.
// wallMS is the wall-clock the simulation took to execute (0 for a
// cache-served record); cached marks records replayed from the memo
// cache so paired figures account for shared runs without re-simulating.
// No-op when rec is nil or no capture is active.
func Submit(rec *RunRecord, wallMS float64, cached bool) {
	if rec == nil {
		return
	}
	captureMu.Lock()
	defer captureMu.Unlock()
	if active == nil {
		return
	}
	r := *rec
	r.Cached = cached
	if cached {
		active.result.Cached++
	} else {
		active.result.ExecMS += wallMS
	}
	active.result.Runs = append(active.result.Runs, r)
}

// MetricsReport is the JSON document written by takosim -metrics and
// takoreport -bench: every captured run with its metrics snapshot.
type MetricsReport struct {
	Runs []RunRecord `json:"runs"`
}

// WriteMetricsReport serializes the runs as indented, deterministic JSON.
func WriteMetricsReport(w io.Writer, runs []RunRecord) error {
	if runs == nil {
		runs = []RunRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(MetricsReport{Runs: runs})
}
