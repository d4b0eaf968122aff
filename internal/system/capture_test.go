package system

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"tako/internal/cpu"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/trace"
)

// captureWorkload builds a small system under the active capture, runs a
// strided store/load loop, and labels the run.
func captureWorkload(t *testing.T, label string) {
	t.Helper()
	s := New(Scaled(2, 16))
	region := s.Alloc("data", 64*1024)
	s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) {
		for i := 0; i < 400; i++ {
			c.Store(p, region.Base+mem.Addr(i*64), uint64(i))
		}
	})
	s.Go(1, "r", func(p *sim.Proc, c *cpu.Core) {
		p.Sleep(500)
		// Two passes over a small window, so the second pass hits in L1.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 8; i++ {
				c.Load(p, region.Base+mem.Addr(i*64))
			}
		}
		for i := 0; i < 400; i++ {
			c.Load(p, region.Base+mem.Addr(i*64))
		}
	})
	s.Run()
	Submit(LabelRun(s, label, s.Ops()), 1.5, false)
}

// TestCaptureEndToEnd runs a workload through the full capture path —
// typed metrics, run records, and a Chrome trace sink — under whatever
// detector the test binary was built with (CI runs this with -race; the
// kernel is single-threaded, so this pins that down rather than assumes
// it).
func TestCaptureEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	sink, err := trace.SinkFor("chrome", &buf)
	if err != nil {
		t.Fatal(err)
	}
	StartCapture(CaptureConfig{Sink: sink})
	captureWorkload(t, "test/e2e")
	res, err := StopCapture()
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(res.Runs))
	}
	if res.ExecMS != 1.5 || res.Cached != 0 {
		t.Errorf("ExecMS = %v, Cached = %d; want 1.5, 0", res.ExecMS, res.Cached)
	}
	r := res.Runs[0]
	if r.Label != "test/e2e" {
		t.Errorf("label = %q", r.Label)
	}
	if r.Cycles == 0 || r.Ops == 0 || r.KernelEvents == 0 {
		t.Errorf("empty run record: %+v", r)
	}
	hits := false
	for _, c := range r.Metrics.Counters {
		if c.Name == "l1.hits" && c.Value > 0 {
			hits = true
		}
	}
	if !hits {
		t.Error("metrics snapshot missing l1.hits")
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	spans, named := 0, false
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
		if e.Ph == "M" && e.Name == "process_name" {
			named = true
		}
	}
	if spans == 0 {
		t.Error("trace has no spans")
	}
	if !named {
		t.Error("trace process was never named by LabelRun")
	}
}

// TestCaptureByteDeterministic runs the identical workload twice through
// separate captures and requires byte-identical trace and metrics
// serializations — the property the golden tests and CI ops gate rely on.
func TestCaptureByteDeterministic(t *testing.T) {
	once := func() (traceOut, metricsOut []byte) {
		var tb, mb bytes.Buffer
		sink, err := trace.SinkFor("jsonl", &tb)
		if err != nil {
			t.Fatal(err)
		}
		StartCapture(CaptureConfig{Sink: sink, TraceKinds: []string{"l3.*", "dram.*", "cb.*"}})
		captureWorkload(t, "test/det")
		res, err := StopCapture()
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteMetricsReport(&mb, res.Runs); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), mb.Bytes()
	}
	t1, m1 := once()
	t2, m2 := once()
	if !bytes.Equal(t1, t2) {
		t.Error("trace output differs between identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics report differs between identical runs")
	}
	if len(t1) == 0 {
		t.Error("empty trace output")
	}
}

// TestCaptureInactiveIsInert verifies the no-capture configuration every
// library user and test runs with: Systems build untraced, LabelRun
// drops, StopCapture returns nothing.
func TestCaptureInactiveIsInert(t *testing.T) {
	s := New(Default(2))
	if s.captured {
		t.Fatal("system captured with no active capture")
	}
	Submit(LabelRun(s, "ignored", 1), 1, false)
	res, err := StopCapture()
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != nil || res.ExecMS != 0 || res.Cached != 0 {
		t.Fatalf("res = %+v, want zero value", res)
	}
}

// TestCaptureProgress pins the live-introspection counters: zero when
// disarmed, counting systems and submissions while a window is open, and
// CaptureRuns returning an isolated copy of the submitted records.
func TestCaptureProgress(t *testing.T) {
	if p := CaptureProgress(); p.Active || p.Systems != 0 || p.Submitted != 0 {
		t.Fatalf("disarmed progress = %+v, want zero", p)
	}
	if CaptureRuns() != nil {
		t.Fatal("disarmed CaptureRuns != nil")
	}

	StartCapture(CaptureConfig{})
	if p := CaptureProgress(); !p.Active || p.Systems != 0 {
		t.Fatalf("armed empty progress = %+v", p)
	}
	captureWorkload(t, "test/progress")
	p := CaptureProgress()
	if p.Systems != 1 || p.Submitted != 1 || p.Cached != 0 || p.ExecMS != 1.5 {
		t.Fatalf("mid-window progress = %+v, want 1 system, 1 submitted, 1.5 exec ms", p)
	}
	live := CaptureRuns()
	if len(live) != 1 || live[0].Label != "test/progress" {
		t.Fatalf("CaptureRuns = %+v", live)
	}
	// The copy is isolated: mutating it must not corrupt the capture log.
	live[0].Label = "mutated"
	res, err := StopCapture()
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs[0].Label != "test/progress" {
		t.Error("CaptureRuns returned a view into the capture log, not a copy")
	}
	if p := CaptureProgress(); p.Active {
		t.Error("progress still active after StopCapture")
	}
}

// TestCaptureRejectsNesting pins the capture-already-active panic.
func TestCaptureRejectsNesting(t *testing.T) {
	StartCapture(CaptureConfig{})
	defer StopCapture()
	defer func() {
		if recover() == nil {
			t.Fatal("nested StartCapture did not panic")
		}
	}()
	StartCapture(CaptureConfig{})
}

// TestMemoLivesOneWindow pins the run cache's lifetime: within one
// window an equal key hits, a failed run is not kept, the next window
// starts empty, and with no window armed every request runs.
func TestMemoLivesOneWindow(t *testing.T) {
	runs := 0
	run := func(v int, err error) func() (any, error) {
		return func() (any, error) { runs++; return v, err }
	}
	check := func(key any, fn func() (any, error), want int, wantHit bool) {
		t.Helper()
		v, hit, _ := Memo(key, fn)
		if v != want || hit != wantHit {
			t.Errorf("Memo(%v) = %v, hit %v; want %v, hit %v", key, v, hit, want, wantHit)
		}
	}

	check("a", run(1, nil), 1, false)
	check("a", run(2, nil), 2, false) // no window: runs every time

	StartCapture(CaptureConfig{})
	check("a", run(3, nil), 3, false)
	check("a", run(4, nil), 3, true)
	check("b", run(5, errors.New("failed")), 5, false)
	check("b", run(6, nil), 6, false)
	StopCapture()

	StartCapture(CaptureConfig{})
	check("a", run(7, nil), 7, false)
	StopCapture()

	if runs != 6 {
		t.Errorf("%d runs executed, want 6", runs)
	}
}

// TestWindowFixesWorkers pins that the worker count comes from the
// window, and defaults to GOMAXPROCS without one.
func TestWindowFixesWorkers(t *testing.T) {
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("no window: Workers() = %d, want GOMAXPROCS", got)
	}
	StartCapture(CaptureConfig{Workers: 3})
	got := Workers()
	StopCapture()
	if got != 3 {
		t.Errorf("window with Workers 3: Workers() = %d", got)
	}
}
