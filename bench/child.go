package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tako/internal/prof"
	"tako/internal/system"
)

// childReport is what a child prints on stdout: the timestamps the
// parent turns into spans, and the finished run's counts.
type childReport struct {
	MainNs  int64 `json:"main_unix_ns"`  // child main entered
	ReadyNs int64 `json:"ready_unix_ns"` // inputs built; the simulation call starts
	RunNs   int64 `json:"run_end_unix_ns"`
	CollNs  int64 `json:"collect_end_unix_ns"`
	VerNs   int64 `json:"verify_end_unix_ns"`

	Err         string             `json:"error,omitempty"`
	RunS        float64            `json:"run_s,omitempty"` // the simulation call alone
	Fingerprint string             `json:"fingerprint,omitempty"`
	Accesses    uint64             `json:"accesses,omitempty"`
	PeakRSSKiB  int64              `json:"peak_rss_kib,omitempty"`
	Counts      map[string]float64 `json:"counts,omitempty"`
}

// childMain runs one rep of w in this process and prints its report.
// setupOnly stops after the setup span; profile, when set, is where the
// run span's CPU profile goes.
func childMain(w workload, sc scale, seed int64, profile string, setupOnly bool) error {
	cr := childReport{MainNs: time.Now().UnixNano()}
	system.StartCapture(system.CaptureConfig{})
	p := w.prepare(sc, seed)
	cr.ReadyNs = time.Now().UnixNano()
	if setupOnly {
		return json.NewEncoder(os.Stdout).Encode(cr)
	}

	stopProf, err := prof.Start(profile, "", "", "")
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	runErr := p.run()
	cr.RunS = time.Since(t0).Seconds()
	cr.RunNs = time.Now().UnixNano()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	if err := stopProf(); err != nil {
		return err
	}
	if runErr != nil {
		cr.Err = runErr.Error()
		return json.NewEncoder(os.Stdout).Encode(cr)
	}

	o := p.collect()
	if o.rec != nil {
		cr.Accesses = simAccesses(o)
		cr.Fingerprint = fingerprint(o.rec)
		cr.Counts = modelCounts(o)
		cr.Counts["sim.cpu_util"] = cpu / cr.RunS
		cr.Counts["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		cr.Counts["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		cr.Counts["runtime.allocs_per_access"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(cr.Accesses)
	}
	cr.CollNs = time.Now().UnixNano()
	if err := p.verify(o); err != nil {
		cr.Err = "verify: " + err.Error()
	}
	cr.VerNs = time.Now().UnixNano()
	cr.PeakRSSKiB, err = peakRSSKiB()
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(cr)
}

// peakRSSKiB reads this process's resident high-water mark (VmHWM).
// getrusage's maxrss would not do: Linux carries the parent's resident
// size into a child it starts with vfork and exec, so a child's maxrss
// is never below its parent's.
func peakRSSKiB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// fingerprint identifies a run's simulated result: cycles, architectural
// ops, kernel events and a hash of the full metrics snapshot. Any change
// that only speeds up the simulator must leave it unchanged.
func fingerprint(rec *system.RunRecord) string {
	h := fnv.New64a()
	// Encoding a snapshot of plain values cannot fail.
	_ = json.NewEncoder(h).Encode(rec.Metrics)
	return fmt.Sprintf("c%d-o%d-e%d-m%016x", rec.Cycles, rec.Ops, rec.KernelEvents, h.Sum64())
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
