// Command takoreport regenerates every table and figure of the paper's
// evaluation, printing each and optionally writing a combined report.
//
// Usage:
//
//	takoreport [-full] [-j N] [-out report.txt] [-skip fig25,fig22]
//	takoreport -bench bench.json [-golden ops.golden.json]
//	takoreport -metrics runs.json -trace all.trace.json -trace-format chrome
//	takoreport -attr -slowest 10
//	takoreport -http :6060
//
// Every simulated system is an independent deterministic kernel, so the
// experiments' variant fan-outs and sensitivity sweeps run -j
// simulations in parallel (default GOMAXPROCS); results always assemble
// in variant order, so the report and all gated counts are byte-identical
// at any -j, so CI runs the ops-golden gate at several -j values against
// one golden. Runs are also memoized for the duration of the process:
// paired figures drawn from the same simulations (fig6/fig7, fig13/fig14,
// fig16/fig17, fig19/fig20) and sweeps that revisit an already-simulated
// configuration share one run instead of recomputing. Per-experiment
// wall-clock timing is printed to stdout but kept out of the -out report,
// so the written report is reproducible byte-for-byte.
//
// -bench captures every run's typed metrics (per-experiment cycle and
// architectural-op counts, latency histograms) into a JSON report,
// along with each experiment's wall-clock, the summed execution time of
// the simulations behind it, and the resulting parallel+cache speedup.
// With -golden, each experiment's op count is compared against the
// golden file and any drift fails the command — ops (committed core +
// engine instructions + DRAM transfers) are deterministic and
// insensitive to timing-model tuning, so CI gates on them while cycle
// counts are only reported. -update-golden rewrites the golden from the
// current run.
//
// -metrics writes every run of every experiment into one combined JSON
// document (the same shape as takosim -metrics). -trace streams every
// experiment's events into one shared trace file; each simulated system
// keeps a globally unique process id across experiments, so a full
// report loads as one Perfetto timeline. -trace-format / -trace-kinds /
// -trace-min-dur behave exactly as in takosim.
//
// -attr arms transaction-level latency attribution for every run and
// appends the conservation-checked "where cycles go" decomposition table
// to the report. -slowest K (implies -attr) prints the K slowest demand
// accesses across all experiments with their per-state timelines.
//
// -http ADDR serves live introspection while the report runs: progress
// across experiments (/progress), all metrics captured so far
// (/metrics), the aggregated transaction-coverage heatmap (/txn), and
// net/http/pprof under /debug/pprof/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tako/internal/exp"
	"tako/internal/hier"
	"tako/internal/introspect"
	"tako/internal/morphs"
	"tako/internal/prof"
	"tako/internal/sched"
	"tako/internal/system"
	"tako/internal/trace"
)

// benchEntry aggregates one experiment's captured runs.
type benchEntry struct {
	ID     string `json:"id"`
	Ops    uint64 `json:"ops"`    // summed over runs; gated against the golden
	Cycles uint64 `json:"cycles"` // summed over runs; reported, never gated
	// WallMS is the experiment's wall-clock; ExecMS sums the wall-clock
	// of the simulations it executed (cache-served runs contribute 0),
	// i.e. the serial cost of the same work. Speedup = ExecMS / WallMS:
	// the combined effect of the parallel scheduler and the run cache
	// for this experiment at this -j.
	WallMS     float64            `json:"wall_ms"`
	ExecMS     float64            `json:"exec_ms"`
	Speedup    float64            `json:"speedup_vs_serial"`
	CachedRuns int                `json:"cached_runs"`
	Runs       []system.RunRecord `json:"runs"`
}

// benchReport is the document written by -bench.
type benchReport struct {
	Scale string `json:"scale"`
	Jobs  int    `json:"jobs"`
	// Aggregate perf trajectory: total report wall-clock vs the summed
	// serial cost of every simulation executed or reused.
	WallMS      float64      `json:"wall_ms"`
	ExecMS      float64      `json:"exec_ms"`
	Speedup     float64      `json:"speedup_vs_serial"`
	Experiments []benchEntry `json:"experiments"`
}

func main() {
	var (
		full      = flag.Bool("full", false, "run at full (slow) scale")
		ff        = flag.Uint64("ff", 0, "fast-forward the first N core memory accesses of each baseline machine analytically before switching the event kernel on (see takosim -ff)")
		ffAuto    = flag.Bool("ff-auto", false, "end fast-forward at analytical miss-ratio convergence (bounded by -ff when both are given)")
		scaleTier = flag.String("scale", "quick", "workload tier for scale-aware experiments (fig25full): quick or full")
		jobs      = flag.Int("j", 0, "simulations to run in parallel (0 = GOMAXPROCS)")

		sharded      = flag.Bool("sharded", false, "host the machine (baseline or täkō) on the tile-sharded message-passing engine (cycle counts differ from the classic engine; byte-identical at any -shard-workers)")
		shardWorkers = flag.Int("shard-workers", 0, "worker goroutines per sharded simulation (≤1 = deterministic sequenced schedule)")
		out          = flag.String("out", "", "also write the report to this file")
		skip         = flag.String("skip", "", "comma-separated experiment ids to skip")
		bench        = flag.String("bench", "", "write per-experiment metrics (JSON) to this file")

		golden       = flag.String("golden", "", "compare each experiment's op count against this golden JSON (requires -bench)")
		updateGolden = flag.Bool("update-golden", false, "rewrite the -golden file from this run instead of comparing")

		metricsOut  = flag.String("metrics", "", "write every run's metrics snapshot (JSON, all experiments combined) to this file")
		traceOut    = flag.String("trace", "", "stream every experiment's trace events into this one file")
		traceFormat = flag.String("trace-format", "chrome", "trace format: chrome (Perfetto-loadable) or jsonl")
		traceKinds  = flag.String("trace-kinds", "", "comma-separated event-kind filters (e.g. 'cb.*,dram.*,l3.*'); empty records everything")
		traceMinDur = flag.Uint64("trace-min-dur", 0, "drop spans shorter than this many cycles (instants are kept)")

		attr     = flag.Bool("attr", false, "arm transaction-level latency attribution and append the where-cycles-go decomposition to the report")
		slowest  = flag.Int("slowest", 0, "print the K slowest demand accesses across all experiments with their state timelines (implies -attr)")
		httpAddr = flag.String("http", "", "serve live introspection (progress, metrics, txn coverage, pprof) on this address while the report runs")

		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		blockprofile = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file at exit")
		mutexprofile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile, *blockprofile, *mutexprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "takoreport: %v\n", err)
		os.Exit(1)
	}

	sched.SetWorkers(*jobs)
	system.SetDefaultSharded(*sharded, *shardWorkers)
	system.SetDefaultFastForward(*ff, *ffAuto)
	if err := exp.SetScale(*scaleTier); err != nil {
		fmt.Fprintf(os.Stderr, "takoreport: %v\n", err)
		os.Exit(2)
	}
	// The run cache is process-global and never evicts, so -skip only
	// changes which figure of a pair simulates first — the survivors
	// still share runs rather than recomputing.
	morphs.SetRunCache(true)

	if *slowest > 0 {
		*attr = true
	}
	if *attr {
		hier.SetAttributionDefaults(true, *slowest)
	}

	var insp *introspect.Server
	if *httpAddr != "" {
		insp, err = introspect.Start(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "takoreport: -http: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("introspection server on http://%s\n", insp.Addr())
		defer insp.Close()
	}

	// Everything below the bench report — combined metrics, the shared
	// trace, attribution tables, introspection — reads captured run
	// records, so any of those flags arms the per-experiment capture.
	capturing := *bench != "" || *metricsOut != "" || *traceOut != "" ||
		*attr || *httpAddr != ""

	// One trace sink is shared by every experiment's capture window.
	// StopCapture closes its sink at each window boundary, so the real
	// sink is wrapped in KeepOpen and closed once after the loop; FirstPid
	// threads the running system count through so process ids stay
	// globally unique across windows in the one output file.
	var traceFile *os.File
	var traceSink trace.MultiSink
	capCfg := system.CaptureConfig{TraceMinSpan: *traceMinDur}
	for _, k := range strings.Split(*traceKinds, ",") {
		if k = strings.TrimSpace(k); k != "" {
			capCfg.TraceKinds = append(capCfg.TraceKinds, k)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "takoreport: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		traceSink, err = trace.SinkFor(*traceFormat, f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "takoreport: %v\n", err)
			os.Exit(2)
		}
		capCfg.Sink = trace.KeepOpen(traceSink)
	}

	skipped := map[string]bool{}
	for _, id := range strings.Split(*skip, ",") {
		if id != "" {
			skipped[id] = true
		}
	}

	// emit goes to stdout and the -out report; status lines (timing,
	// progress) go to stdout only, keeping the written report
	// byte-reproducible across -j values and host speeds.
	var report strings.Builder
	emit := func(format string, args ...interface{}) {
		s := fmt.Sprintf(format, args...)
		fmt.Print(s)
		report.WriteString(s)
	}

	scale := "quick"
	if *full {
		scale = "full"
	}
	emit("täkō reproduction report — every table and figure of the evaluation\n")
	emit("scale: %s\n\n", scale)
	fmt.Printf("parallelism: %d workers, memoized run cache\n\n", sched.Workers())
	var entries []benchEntry
	var allRuns []system.RunRecord
	var totalWall, totalExec float64
	nextPid := 0
	failures := 0
	reportStart := time.Now()
	if insp != nil {
		n := 0
		for _, e := range exp.All() {
			if !skipped[e.ID] {
				n++
			}
		}
		insp.SetExperiments(n)
	}
	for _, e := range exp.All() {
		if skipped[e.ID] {
			emit("== %s: SKIPPED ==\n\n", e.ID)
			continue
		}
		emit("== %s: %s ==\npaper: %s\n", e.ID, e.Title, e.Paper)
		if insp != nil {
			insp.StartExperiment(e.ID)
		}
		if capturing {
			cfg := capCfg
			cfg.FirstPid = nextPid
			system.StartCapture(cfg)
		}
		start := time.Now()
		tbl, err := e.Run(!*full)
		wallMS := float64(time.Since(start)) / float64(time.Millisecond)
		if capturing {
			captured, capErr := system.StopCapture()
			if capErr != nil {
				fmt.Fprintf(os.Stderr, "takoreport: capture: %v\n", capErr)
				os.Exit(1)
			}
			nextPid += captured.Systems
			if err == nil {
				allRuns = append(allRuns, captured.Runs...)
				if insp != nil {
					insp.PublishRuns(captured.Runs)
				}
			}
			if *bench != "" {
				entry := benchEntry{
					ID:         e.ID,
					WallMS:     wallMS,
					ExecMS:     captured.ExecMS,
					CachedRuns: captured.Cached,
					Runs:       captured.Runs,
				}
				if entry.Runs == nil {
					entry.Runs = []system.RunRecord{}
				}
				if entry.WallMS > 0 {
					entry.Speedup = entry.ExecMS / entry.WallMS
				}
				for _, r := range entry.Runs {
					entry.Ops += r.Ops
					entry.Cycles += r.Cycles
				}
				if err == nil {
					entries = append(entries, entry)
					totalExec += captured.ExecMS
				}
			}
		}
		totalWall += wallMS
		if err != nil {
			emit("ERROR: %v\n\n", err)
			failures++
			if insp != nil {
				insp.FinishExperiment(e.ID)
			}
			continue
		}
		emit("%s", tbl.String())
		emit("\n")
		fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Millisecond))
		if insp != nil {
			insp.FinishExperiment(e.ID)
		}
	}
	if insp != nil {
		insp.SetPhase("writing report")
	}
	if *attr {
		atbl, err := system.AttributionReport(allRuns)
		emit("%s\n", atbl.String())
		if err != nil {
			fmt.Fprintf(os.Stderr, "takoreport: %v\n", err)
			os.Exit(1)
		}
	}
	if *slowest > 0 {
		if stbl := system.SlowestReport(allRuns, *slowest); stbl != nil {
			emit("%s\n", stbl.String())
		}
	}
	fmt.Printf("report total: %s wall clock\n", time.Since(reportStart).Round(time.Millisecond))
	if traceFile != nil {
		err := traceSink.Close()
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "takoreport: closing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%s)\n", *traceOut, *traceFormat)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "takoreport: %v\n", err)
			os.Exit(1)
		}
		if err := system.WriteMetricsReport(f, allRuns); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "takoreport: writing metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics written to %s (%d runs)\n", *metricsOut, len(allRuns))
	}
	if insp != nil {
		insp.SetPhase("done")
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "takoreport: write %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if *bench != "" {
		doc := benchReport{
			Scale:       scale,
			Jobs:        sched.Workers(),
			WallMS:      totalWall,
			ExecMS:      totalExec,
			Experiments: entries,
		}
		if doc.WallMS > 0 {
			doc.Speedup = doc.ExecMS / doc.WallMS
		}
		if err := writeBench(*bench, doc); err != nil {
			fmt.Fprintf(os.Stderr, "takoreport: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("bench metrics written to %s (%d experiments, %.1fx vs serial)\n",
			*bench, len(entries), doc.Speedup)
		if *golden != "" {
			if err := checkGolden(*golden, scale, entries, *updateGolden); err != nil {
				fmt.Fprintf(os.Stderr, "takoreport: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "takoreport: writing profile: %v\n", err)
		os.Exit(1)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "takoreport: %d experiments failed\n", failures)
		os.Exit(1)
	}
}

func writeBench(path string, doc benchReport) error {
	if doc.Experiments == nil {
		doc.Experiments = []benchEntry{}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opsGolden is the golden-file shape: per-scale maps of experiment id to
// expected architectural op count.
type opsGolden map[string]map[string]uint64

// checkGolden gates each experiment's op count against the golden file
// (or rewrites the file when update is set). Experiments absent from the
// golden are reported but don't fail, so adding an experiment doesn't
// break CI before the golden is refreshed.
func checkGolden(path, scale string, entries []benchEntry, update bool) error {
	g := opsGolden{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("parse golden %s: %v", path, err)
		}
	} else if !update {
		return fmt.Errorf("read golden %s: %v (run with -update-golden to create it)", path, err)
	}
	if update {
		m := map[string]uint64{}
		for _, e := range entries {
			m[e.ID] = e.Ops
		}
		g[scale] = m
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("ops golden updated: %s [%s]\n", path, scale)
		return nil
	}
	want, ok := g[scale]
	if !ok {
		return fmt.Errorf("golden %s has no %q scale (run with -update-golden)", path, scale)
	}
	var drift []string
	for _, e := range entries {
		w, ok := want[e.ID]
		if !ok {
			fmt.Printf("ops gate: %s not in golden (ops=%d); refresh with -update-golden\n", e.ID, e.Ops)
			continue
		}
		if e.Ops != w {
			drift = append(drift, fmt.Sprintf("%s: ops %d, golden %d", e.ID, e.Ops, w))
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("op counts drifted from golden %s:\n  %s", path, strings.Join(drift, "\n  "))
	}
	fmt.Printf("ops gate: %d experiments match golden\n", len(entries))
	return nil
}
