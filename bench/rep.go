package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rep is one child process as the parent saw it.
type rep struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced,omitempty"`
	SetupOnly bool   `json:"setup_only,omitempty"`
	OK        bool   `json:"ok"`
	Err       string `json:"error,omitempty"`

	// SetupS runs from the parent starting the child to the child
	// entering the simulation call: process start, runtime and package
	// initialisation, and building the inputs.
	SetupS      float64 `json:"setup_s"`
	RunS        float64 `json:"run_s,omitempty"` // as measured, before scaling to reference host speed
	NsPerAccess float64 `json:"ns_per_access,omitempty"`
	ProbeS      float64 `json:"probe_s,omitempty"` // hostProbe just before the rep
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	WallS       float64 `json:"wall_s"` // start to exit

	Fingerprint string             `json:"fingerprint,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
	Counts      map[string]float64 `json:"counts,omitempty"`
	// Layers is the traced rep's CPU profile charged to layers, in
	// seconds (attr.go); Samples is its sample count.
	Layers  map[string]float64 `json:"host_layers_s,omitempty"`
	Samples int64              `json:"profile_samples,omitempty"`
}

// span is one phase of a rep, in seconds since the parent started the
// child process.
type span struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
}

// runner spawns reps as child processes of exe, one at a time.
type runner struct {
	exe     string
	size    string
	seed    int64
	workdir string // where traced reps write their CPU profiles
}

// spawn runs one rep of workload w in a fresh child process and waits
// for it. profile names the CPU profile file of a traced rep.
func (r *runner) spawn(ctx context.Context, w string, profile string, setupOnly bool) rep {
	out := rep{Workload: w, Traced: profile != "", SetupOnly: setupOnly}
	args := []string{"-child", "-workload", w, "-size", r.size, "-seed", strconv.FormatInt(r.seed, 10)}
	if profile != "" {
		args = append(args, "-profile", profile)
	}
	if setupOnly {
		args = append(args, "-setup-only")
	} else {
		out.ProbeS = hostProbe()
	}
	cmd := exec.CommandContext(ctx, r.exe, args...)
	// The child dies with the parent, however the parent ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	out.WallS = time.Since(start).Seconds()
	if err != nil {
		out.Err = fmt.Sprintf("child %v: %s", err, lastLines(stderr.String(), 5))
		return out
	}
	var cr childReport
	if err := json.Unmarshal([]byte(lastLines(stdout.String(), 1)), &cr); err != nil {
		out.Err = fmt.Sprintf("child report: %v", err)
		return out
	}
	at := func(ns int64) float64 { return float64(ns-start.UnixNano()) / 1e9 }
	out.SetupS = at(cr.ReadyNs)
	out.Spans = []span{{"exec", 0, at(cr.MainNs)}, {"setup", at(cr.MainNs), at(cr.ReadyNs)}}
	if setupOnly {
		out.OK = true
		return out
	}
	out.Spans = append(out.Spans,
		span{"run", at(cr.ReadyNs), at(cr.RunNs)},
		span{"collect", at(cr.RunNs), at(cr.CollNs)},
		span{"verify", at(cr.CollNs), at(cr.VerNs)})
	out.RunS, out.Fingerprint, out.Counts = cr.RunS, cr.Fingerprint, cr.Counts
	out.PeakRSSMB = float64(cr.PeakRSSKiB) / 1024
	out.NsPerAccess = ratio(cr.RunS*1e9, float64(cr.Accesses))
	if cr.Err != "" {
		out.Err = cr.Err
		return out
	}
	if profile != "" {
		if out.Layers, out.Samples, err = attribute(ctx, profile); err != nil {
			out.Err = err.Error()
			return out
		}
	}
	out.OK = true
	return out
}

// lastLines returns the last n non-empty lines of s.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
