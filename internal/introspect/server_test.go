package introspect

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tako/internal/cpu"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/system"
)

// TestServerEndToEnd is the -http e2e smoke CI runs under -race: start a
// server on an ephemeral port, run a real captured simulation while
// polling it, check every endpoint returns well-formed data, and shut
// down cleanly.
func TestServerEndToEnd(t *testing.T) {
	srv, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode, body
	}

	// Before any work: progress is valid JSON with the starting phase.
	srv.SetExperiments(1)
	if code, body := get("/progress"); code != http.StatusOK {
		t.Fatalf("/progress = %d: %s", code, body)
	}

	// Run a small captured simulation, as a driver would.
	system.StartCapture(system.CaptureConfig{Options: system.Options{Attribution: true, SlowestK: 4}})
	defer system.StopCapture()
	srv.StartExperiment("smoke")
	s := system.New(system.Scaled(2, 16))
	region := s.Alloc("data", 32*1024)
	s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) {
		for i := 0; i < 200; i++ {
			c.Store(p, region.Base+mem.Addr(i*64), uint64(i))
		}
	})
	s.Go(1, "r", func(p *sim.Proc, c *cpu.Core) {
		p.Sleep(300)
		for i := 0; i < 200; i++ {
			c.Load(p, region.Base+mem.Addr(i*64))
		}
	})
	s.Run()
	system.Submit(system.LabelRun(s, "introspect/smoke", s.Ops()), 1, false)

	// Mid-capture: /metrics and /txn see the in-flight run.
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	var metrics struct {
		Runs []struct {
			Label    string               `json:"label"`
			TxnEdges []hier.TxnTransition `json:"txn_edges"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if len(metrics.Runs) != 1 || metrics.Runs[0].Label != "introspect/smoke" {
		t.Fatalf("/metrics runs = %+v, want the live capture run", metrics.Runs)
	}
	if len(metrics.Runs[0].TxnEdges) == 0 {
		t.Error("/metrics run record has no txn edge coverage")
	}

	srv.FinishExperiment("smoke")
	srv.SetPhase("done")

	// Progress reflects the finished experiment and the window's runs.
	_, body = get("/progress")
	var prog progressDoc
	if err := json.Unmarshal(body, &prog); err != nil {
		t.Fatalf("/progress is not valid JSON: %v", err)
	}
	if prog.Phase != "done" {
		t.Errorf("phase = %q, want done", prog.Phase)
	}
	if prog.Experiments.Total != 1 || prog.Experiments.Done != 1 {
		t.Errorf("experiments = %+v, want 1/1", prog.Experiments)
	}
	if prog.Capture.Systems != 1 || prog.Capture.Submitted != 1 {
		t.Errorf("capture = %+v, want 1 system and 1 submitted run", prog.Capture)
	}
	if prog.Sched.Workers < 1 {
		t.Errorf("sched workers = %d, want >= 1", prog.Sched.Workers)
	}

	// Heatmap renders the access kind; JSON variant carries edges and the
	// unvisited complement.
	code, body = get("/txn")
	if code != http.StatusOK || !strings.Contains(string(body), "access") {
		t.Errorf("/txn = %d, body missing access kind table", code)
	}
	_, body = get("/txn?format=json")
	var cov struct {
		Edges     []hier.TxnTransition `json:"edges"`
		Unvisited []hier.TxnTransition `json:"unvisited"`
	}
	if err := json.Unmarshal(body, &cov); err != nil {
		t.Fatalf("/txn?format=json is not valid JSON: %v", err)
	}
	if len(cov.Edges) == 0 {
		t.Error("coverage JSON has no visited edges")
	}
	if len(cov.Edges)+len(cov.Unvisited) != len(hier.LegalEdges()) {
		t.Errorf("visited %d + unvisited %d != legal %d",
			len(cov.Edges), len(cov.Unvisited), len(hier.LegalEdges()))
	}

	// A fast-forwarded run surfaces the FF phase in /progress (the
	// gauges are the window's and cumulative, so the section persists
	// after the run finishes).
	ffCfg := system.Scaled(2, 16)
	ffCfg.NoTako = true
	ffCfg.Hier.PrefetchDegree = 0
	ffCfg.FastForward = 4096
	fs := system.New(ffCfg)
	ffRegion := fs.Alloc("ff", 64*1024)
	fs.Go(0, "ff", func(p *sim.Proc, c *cpu.Core) {
		for i := 0; i < 6000; i++ {
			c.Load(p, ffRegion.Base+mem.Addr((i%512)*64))
		}
	})
	fs.Run()
	_, body = get("/progress")
	prog = progressDoc{}
	if err := json.Unmarshal(body, &prog); err != nil {
		t.Fatalf("/progress is not valid JSON: %v", err)
	}
	if prog.FastForward == nil {
		t.Error("/progress has no fastforward section after an FF run")
	} else if prog.FastForward.Accesses == 0 || prog.FastForward.Budget == 0 {
		t.Errorf("fastforward = %+v, want nonzero accesses and budget", prog.FastForward)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(string(body), "fast-forward") {
		t.Errorf("index = %d, missing fast-forward tag: %.200s", code, body)
	}

	// Index page links everything; pprof endpoints respond.
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(string(body), "/debug/pprof/") {
		t.Errorf("index = %d, missing pprof link: %.120s", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get("/nosuch"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// After close the port stops accepting.
	if _, err := http.Get(base + "/progress"); err == nil {
		t.Error("server still serving after Close")
	}
}

// TestServerBadAddr pins the error path: an unbindable address fails at
// Start, not later in a goroutine.
func TestServerBadAddr(t *testing.T) {
	if _, err := Start("256.256.256.256:0"); err == nil {
		t.Fatal("Start on an invalid address did not error")
	}
}

// TestServerConcurrentPolling hammers the endpoints from several
// goroutines while state changes, for the race detector's benefit.
func TestServerConcurrentPolling(t *testing.T) {
	srv, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	system.StartCapture(system.CaptureConfig{})
	defer system.StopCapture()
	base := "http://" + srv.Addr()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			srv.SetPhase(fmt.Sprintf("phase-%d", i))
			srv.StartExperiment(fmt.Sprintf("e%d", i))
			system.Submit(&system.RunRecord{Label: fmt.Sprintf("r%d", i)}, 1, false)
			srv.FinishExperiment(fmt.Sprintf("e%d", i))
			time.Sleep(time.Millisecond)
		}
	}()
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for {
				select {
				case <-done:
					errc <- nil
					return
				default:
				}
				for _, p := range []string{"/progress", "/metrics", "/txn"} {
					resp, err := http.Get(base + p)
					if err != nil {
						errc <- fmt.Errorf("GET %s: %v", p, err)
						return
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
