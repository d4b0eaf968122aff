package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// driverTimeout caps a -workload invocation: every child is killed
	// once it passes, so the bench exits well within three minutes.
	driverTimeout = 170 * time.Second
	// setupProbes is how many setup-only children a -workload -trace 0
	// invocation adds, so setup_s is a median of at least that many.
	setupProbes = 8
)

// dist summarises one metric's samples.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summary is one workload's result.
type summary struct {
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedFrac  float64            `json:"failed_frac"`
	Fingerprint string             `json:"fingerprint"`
	EndToEnd    map[string]dist    `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Reps        []rep              `json:"reps"`
}

// results is a suite run's file, the input of -compare.
type results struct {
	Stamp     stamp              `json:"stamp"`
	Workloads map[string]summary `json:"workloads"`
}

// stamp records what produced a results file.
type stamp struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	Size       string  `json:"size"`
	Inputs     scale   `json:"inputs"`
	Reps       int     `json:"reps"`
	Traced     bool    `json:"traced"`
	WallS      float64 `json:"wall_s"` // the whole invocation
}

// driverRun measures one workload for about seconds and prints the
// result as the last line of w: end-to-end metrics, or with traced the
// per-layer metrics of an added traced rep.
func driverRun(w io.Writer, r *runner, name string, seconds int, traced bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), driverTimeout)
	defer cancel()
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var reps []rep
	for {
		rp := r.spawn(ctx, name, "", false)
		logRep(rp)
		reps = append(reps, rp)
		// Start another rep only if it should end within the budget,
		// leaving room for the traced rep, which takes about as long.
		need := time.Duration(rp.WallS * float64(time.Second))
		if traced {
			need *= 2
		}
		if !rp.OK || time.Since(start)+need > budget {
			break
		}
	}
	if traced {
		rp := r.spawn(ctx, name, filepath.Join(r.workdir, name+".pprof"), false)
		logRep(rp)
		reps = append(reps, rp)
	} else {
		for i := 0; i < setupProbes; i++ {
			reps = append(reps, r.spawn(ctx, name, "", true))
		}
	}
	s := summarize(reps)
	if !s.complete(traced) {
		return fmt.Errorf("%s: no successful rep to measure (%d of %d failed)", name, s.Failed, s.Attempted)
	}
	metrics := map[string]valueUnit{}
	if traced {
		for _, m := range perLayer() {
			metrics[m.Name] = valueUnit{s.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = valueUnit{s.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	return json.NewEncoder(w).Encode(driverResult{
		Correct: s.Failed == 0, Attempted: s.Attempted, Failed: s.Failed, Metrics: metrics,
	})
}

// driverResult is the last line a -workload invocation prints.
type driverResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// suiteRun runs reps untraced reps of every workload round-robin, so
// drift on a shared machine hits all of them alike, then one traced rep
// of each. It prints a summary, writes the results file when out is set,
// and fails if any rep failed.
func suiteRun(w io.Writer, r *runner, reps int, traced bool, out string) error {
	start := time.Now()
	ctx := context.Background()
	byName := map[string][]rep{}
	for i := 0; i < reps; i++ {
		for _, wl := range workloadList {
			rp := r.spawn(ctx, wl.name, "", false)
			logRep(rp)
			byName[wl.name] = append(byName[wl.name], rp)
		}
	}
	if traced {
		for _, wl := range workloadList {
			rp := r.spawn(ctx, wl.name, filepath.Join(r.workdir, wl.name+".pprof"), false)
			logRep(rp)
			byName[wl.name] = append(byName[wl.name], rp)
		}
	}
	res := results{
		Stamp: stamp{
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitRev: gitRev(), Seed: r.seed, Size: r.size, Inputs: scales[r.size], Reps: reps, Traced: traced,
		},
		Workloads: map[string]summary{},
	}
	failed := 0
	for _, wl := range workloadList {
		s := summarize(byName[wl.name])
		res.Workloads[wl.name] = s
		failed += s.Failed
	}
	res.Stamp.WallS = time.Since(start).Seconds()
	printSummary(w, res)
	if out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d reps failed", failed)
	}
	return nil
}

func logRep(rp rep) {
	status := "ok"
	if !rp.OK {
		status = "FAILED: " + rp.Err
	}
	kind := "rep"
	if rp.Traced {
		kind = "traced rep"
	}
	fmt.Fprintf(os.Stderr, "%-16s %-10s setup %.4fs run %.4fs probe %.4fs rss %.1fMB %s\n",
		rp.Workload, kind, rp.SetupS, rp.RunS, rp.ProbeS, rp.PeakRSSMB, status)
}

// summarize checks one workload's reps against each other and reduces
// them to metrics. A rep whose fingerprint differs from the most common
// one fails: the simulation is deterministic, so any difference is a bug.
func summarize(reps []rep) summary {
	count := map[string]int{}
	for _, rp := range reps {
		if rp.OK && rp.Fingerprint != "" {
			count[rp.Fingerprint]++
		}
	}
	s := summary{Attempted: len(reps), EndToEnd: map[string]dist{}, Reps: reps}
	for fp, n := range count {
		if n > count[s.Fingerprint] || (n == count[s.Fingerprint] && fp < s.Fingerprint) {
			s.Fingerprint = fp
		}
	}
	samples := map[string][]float64{}
	var traced *rep
	for i := range reps {
		rp := &reps[i]
		if rp.OK && rp.Fingerprint != "" && rp.Fingerprint != s.Fingerprint {
			rp.OK = false
			rp.Err = fmt.Sprintf("fingerprint %s differs from %s", rp.Fingerprint, s.Fingerprint)
		}
		if !rp.OK {
			s.Failed++
			continue
		}
		samples["setup_s"] = append(samples["setup_s"], rp.SetupS)
		switch {
		case rp.Traced:
			traced = rp
		case !rp.SetupOnly:
			ref := probeRefS / rp.ProbeS // to reference host speed
			samples["run_s"] = append(samples["run_s"], rp.RunS*ref)
			samples["ns_per_access"] = append(samples["ns_per_access"], rp.NsPerAccess*ref)
			samples["peak_rss_mb"] = append(samples["peak_rss_mb"], rp.PeakRSSMB)
		}
	}
	s.FailedFrac = float64(s.Failed) / float64(s.Attempted)
	for _, m := range endToEnd {
		if xs := samples[m.Name]; len(xs) > 0 {
			s.EndToEnd[m.Name] = newDist(xs, m.Unit)
		}
	}
	if run, ok := s.EndToEnd["run_s"]; ok && traced != nil {
		s.PerLayer = layerMetrics(*traced, run.Median)
	}
	return s
}

// complete reports whether every metric the summary should carry was
// measured.
func (s summary) complete(traced bool) bool {
	if traced {
		return s.PerLayer != nil
	}
	return len(s.EndToEnd) == len(endToEnd)
}

// layerMetrics derives the per-layer metrics from the traced rep and the
// untraced median run time.
func layerMetrics(t rep, untracedRunS float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range t.Counts {
		m[k] = v
	}
	for l, v := range t.Layers {
		m["host."+l+"_s"] = v
	}
	m["host.profile_samples"] = float64(t.Samples)
	m["trace_overhead"] = ratio(t.RunS*probeRefS/t.ProbeS, untracedRunS)
	m["sim.ns_per_event"] = ratio(untracedRunS*1e9, m["sim.events"])
	hier := t.Layers["hier"] + t.Layers["cache"] + t.Layers["tlb"] + t.Layers["flat"]
	m["hier.ns_per_access"] = ratio(hier*1e9, m["hier.accesses"])
	m["engine.ns_per_callback"] = ratio(t.Layers["engine"]*1e9, m["engine.callbacks"])
	m["analytic.ns_per_access"] = ratio(t.Layers["analytic"]*1e9, m["analytic.ff_accesses"])
	return m
}

func newDist(xs []float64, unit string) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	d := dist{Median: (s[(n-1)/2] + s[n/2]) / 2, Q1: s[0], Q3: s[0], N: n, Unit: unit}
	if n >= 2 {
		d.Q1, d.Q3 = quartile(s, 1), quartile(s, 3)
	}
	return d
}

// quartile returns the i-th quartile of sorted s (len ≥ 2) as Python's
// statistics.quantiles(s, n=4) computes it (the default "exclusive"
// method), so spreads read the same as in other tooling.
func quartile(s []float64, i int) float64 {
	m := len(s) + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > len(s)-1 {
		j = len(s) - 1
	}
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printSummary writes each workload's end-to-end medians and the
// heaviest layers of its traced rep.
func printSummary(w io.Writer, res results) {
	st := res.Stamp
	fmt.Fprintf(w, "seed %d, size %s, %d reps, %d cpus, GOMAXPROCS %d, %s, rev %s, %.0fs\n",
		st.Seed, st.Size, st.Reps, st.CPUs, st.GOMAXPROCS, st.GoVersion, st.GitRev, st.WallS)
	for _, wl := range workloadList {
		s := res.Workloads[wl.name]
		fmt.Fprintf(w, "\n%s  failed_frac %.2f (%d/%d)  fingerprint %s\n", wl.name, s.FailedFrac, s.Failed, s.Attempted, s.Fingerprint)
		for _, m := range endToEnd {
			d := s.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-14s %12.6g %-3s  q1 %.6g  q3 %.6g  n=%d\n", m.Name, d.Median, m.Unit, d.Q1, d.Q3, d.N)
		}
		if s.PerLayer == nil {
			continue
		}
		layers := append([]string(nil), hostLayers...)
		sort.SliceStable(layers, func(i, j int) bool {
			return s.PerLayer["host."+layers[i]+"_s"] > s.PerLayer["host."+layers[j]+"_s"]
		})
		var top []string
		for _, l := range layers[:6] {
			top = append(top, fmt.Sprintf("%s %.2fs", l, s.PerLayer["host."+l+"_s"]))
		}
		fmt.Fprintf(w, "  host time: %s (of %.0f samples)\n", strings.Join(top, ", "), s.PerLayer["host.profile_samples"])
	}
}

// compareFiles prints, for every workload and end-to-end metric, the
// change of b's median against a's and the metric's bound, and fails if
// any pair worsened beyond its bound or b has failed reps.
func compareFiles(w io.Writer, aPath, bPath string) error {
	var a, b results
	for _, f := range []struct {
		path string
		res  *results
	}{{aPath, &a}, {bPath, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, f.res); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	bad := 0
	for _, wl := range workloadList {
		sa, okA := a.Workloads[wl.name]
		sb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-16s missing from one file\n", wl.name)
			bad++
			continue
		}
		if sb.Failed > 0 {
			fmt.Fprintf(w, "%-16s failed_frac %.2f  FAILED\n", wl.name, sb.FailedFrac)
			bad++
		}
		for _, m := range endToEnd {
			da, db := sa.EndToEnd[m.Name], sb.EndToEnd[m.Name]
			if da.N == 0 || db.N == 0 {
				fmt.Fprintf(w, "%-16s %-14s missing\n", wl.name, m.Name)
				bad++
				continue
			}
			change := (db.Median - da.Median) / da.Median
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			allowed := m.Bound
			if f := m.Floor / da.Median; f > allowed {
				allowed = f
			}
			status := "ok"
			if worse > allowed {
				status = "WORSE"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-14s %12.6g -> %-12.6g %-3s %+7.2f%%  bound %5.1f%%  %s\n",
				wl.name, m.Name, da.Median, db.Median, m.Unit, 100*change, 100*allowed, status)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload/metric pairs outside their bounds", bad)
	}
	return nil
}
