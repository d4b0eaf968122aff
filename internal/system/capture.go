package system

import (
	"encoding/json"
	"io"
	"sync"

	"tako/internal/hier"
	"tako/internal/stats"
	"tako/internal/trace"
)

// This file is the observability capture point: the CLI tools arm a
// process-wide capture (StartCapture) before running experiments, every
// System built afterwards attaches a tracer streaming into the shared
// exporter, and each run labels itself (LabelRun, called by the study
// drivers once the study/variant is known) to build its metrics
// snapshot. StopCapture closes the exporter and hands back the run
// records for -metrics / -bench reports.
//
// Record construction is confined to the run: LabelRun reads only the
// run's own System and returns the record; nothing about a run's
// contents lives in shared state. Runs enter the shared capture log only
// through an explicit Submit, which the drivers call in deterministic
// (variant/sweep) order after any parallel fan-out has joined — so the
// capture log, and everything serialized from it, is byte-identical no
// matter how many simulations ran concurrently.
//
// When no capture is armed — every test and library use — all of this is
// a single mutex-guarded nil check per System, and runs record nothing.

// CaptureConfig configures a capture session.
type CaptureConfig struct {
	// Sink receives every traced event; nil captures metrics only.
	Sink trace.MultiSink
	// TraceKinds filters traced event kinds ("cb.*", "dram.*"; empty =
	// all). TraceMinSpan drops spans shorter than that many cycles.
	TraceKinds   []string
	TraceMinSpan uint64
	// TraceCapacity sizes each run's in-memory ring (default 4096).
	TraceCapacity int
	// FirstPid offsets the pids this capture assigns to its systems.
	// Pids reset per capture window by default (so repeated captures are
	// byte-identical); a driver running several capture windows into ONE
	// shared trace file (takoreport) threads the previous window's
	// Systems count through here to keep pids globally unique.
	FirstPid int
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

// CaptureResult is everything one capture window collected: the run
// records in submission order (deterministic — drivers submit in
// variant/sweep order), plus the window's aggregate timing. ExecMS sums
// the wall-clock of simulations actually executed; cached submissions
// contribute no ExecMS, so ExecMS is the serial-time estimate a
// parallel run is compared against.
type CaptureResult struct {
	Runs   []RunRecord
	ExecMS float64
	Cached int
	// Systems counts the systems built (pids assigned) in this window;
	// multi-window drivers add it to CaptureConfig.FirstPid for the next
	// window so one shared trace file never reuses a pid.
	Systems int
}

type capture struct {
	cfg     CaptureConfig
	result  CaptureResult
	nextPid int
}

var (
	captureMu sync.Mutex
	active    *capture
)

// StartCapture arms observability capture for all Systems built until
// StopCapture. Panics if a capture is already active (captures don't
// nest; the CLI tools arm exactly one).
func StartCapture(cfg CaptureConfig) {
	captureMu.Lock()
	defer captureMu.Unlock()
	if active != nil {
		panic("system: capture already active")
	}
	active = &capture{cfg: cfg, nextPid: cfg.FirstPid}
}

// StopCapture disarms the capture, closes the trace sink, and returns
// every submitted run in submission order.
func StopCapture() (CaptureResult, error) {
	captureMu.Lock()
	defer captureMu.Unlock()
	if active == nil {
		return CaptureResult{}, nil
	}
	res := active.result
	res.Systems = active.nextPid - active.cfg.FirstPid
	var err error
	if active.cfg.Sink != nil {
		err = active.cfg.Sink.Close()
	}
	active = nil
	return res, err
}

// Progress is a point-in-time view of the active capture window, served
// by the live introspection endpoint (/progress). All zero when no
// capture is armed.
type Progress struct {
	Active    bool    `json:"active"`
	Systems   int     `json:"systems"`   // systems built this window
	Submitted int     `json:"submitted"` // run records submitted
	Cached    int     `json:"cached"`    // of those, served by the memo cache
	ExecMS    float64 `json:"exec_ms"`   // summed serial cost of executed runs
}

// CaptureProgress snapshots the active capture window's counters.
func CaptureProgress() Progress {
	captureMu.Lock()
	defer captureMu.Unlock()
	if active == nil {
		return Progress{}
	}
	return Progress{
		Active:    true,
		Systems:   active.nextPid - active.cfg.FirstPid,
		Submitted: len(active.result.Runs),
		Cached:    active.result.Cached,
		ExecMS:    active.result.ExecMS,
	}
}

// CaptureRuns copies the run records submitted to the active capture so
// far (nil when no capture is armed) — the live half of an introspection
// metrics snapshot, alongside whatever the driver already published.
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

// attachCapture wires a freshly built System into the active capture (if
// any): a tracer streaming into the shared sink, and a pid for LabelRun.
func (s *System) attachCapture() {
	captureMu.Lock()
	defer captureMu.Unlock()
	if active == nil {
		return
	}
	s.capPid = active.nextPid
	active.nextPid++
	s.captured = true
	if active.cfg.Sink != nil {
		capacity := active.cfg.TraceCapacity
		if capacity == 0 {
			capacity = 4096
		}
		tr := trace.New(capacity)
		tr.Filter(active.cfg.TraceKinds...)
		tr.SetMinSpan(active.cfg.TraceMinSpan)
		tr.AttachSink(active.cfg.Sink.Process(s.capPid))
		s.H.AttachTracer(tr)
	}
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
