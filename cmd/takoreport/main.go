// Command takoreport regenerates every table and figure of the paper's
// evaluation, printing each and optionally writing a combined report.
//
// Usage:
//
//	takoreport [-full] [-j N] [-out report.txt] [-skip fig25,fig22]
//	takoreport -bench bench.json [-golden ops.golden.json]
//	takoreport -metrics runs.json -trace all.trace.json -trace-format chrome
//	takoreport -attr -slowest 10
//	takoreport -verify
//	takoreport -http :6060
//
// Every simulated system is an independent deterministic kernel, so the
// experiments' variant fan-outs and sensitivity sweeps run -j
// simulations in parallel (default GOMAXPROCS); results always assemble
// in variant order, so the report and all gated counts are byte-identical
// at any -j, so CI runs the ops-golden gate at several -j values against
// one golden. One run window spans the whole command and memoizes its
// runs: paired figures drawn from the same simulations (fig6/fig7,
// fig13/fig14, fig16/fig17, fig19/fig20) and sweeps that revisit an
// already-simulated configuration share one run instead of recomputing.
// Per-experiment wall-clock timing is printed to stdout but kept out of
// the -out report, so the written report is reproducible byte-for-byte.
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
// experiment's events into one shared trace file; the run window gives
// each simulated system its own process id, so a full report loads as
// one Perfetto timeline. -trace-format / -trace-kinds /
// -trace-min-dur behave exactly as in takosim. The bench report also
// records the system.Options the run was made under ("options").
//
// -attr arms transaction-level latency attribution for every run and
// appends the conservation-checked "where cycles go" decomposition table
// to the report. -slowest K (implies -attr) prints the K slowest demand
// accesses across all experiments with their per-state timelines.
// -verify runs every experiment with coherence-freshness assertions and
// the periodic invariant checker, and prints which legal state-machine
// edges the whole report never exercised.
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

	"tako/internal/cli"
	"tako/internal/exp"
	"tako/internal/system"
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
	// Options is the run configuration every simulation was built
	// under.
	Options system.Options `json:"options"`
	// Aggregate perf trajectory: total report wall-clock vs the summed
	// serial cost of every simulation executed or reused.
	WallMS      float64      `json:"wall_ms"`
	ExecMS      float64      `json:"exec_ms"`
	Speedup     float64      `json:"speedup_vs_serial"`
	Experiments []benchEntry `json:"experiments"`
}

func main() {
	var (
		shared = cli.Register(flag.CommandLine)
		out    = flag.String("out", "", "also write the report to this file")
		skip   = flag.String("skip", "", "comma-separated experiment ids to skip")
		bench  = flag.String("bench", "", "write per-experiment metrics (JSON) to this file")

		golden       = flag.String("golden", "", "compare each experiment's op count against this golden JSON (requires -bench)")
		updateGolden = flag.Bool("update-golden", false, "rewrite the -golden file from this run instead of comparing")
	)
	flag.Parse()
	run := shared.Start("takoreport")

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
	emit := func(format string, args ...any) {
		s := fmt.Sprintf(format, args...)
		fmt.Print(s)
		report.WriteString(s)
	}

	scale := "quick"
	if shared.Full {
		scale = "full"
	}
	emit("täkō reproduction report — every table and figure of the evaluation\n")
	emit("scale: %s\n\n", scale)
	workers := system.Workers()
	fmt.Printf("parallelism: %d workers, memoized run cache\n\n", workers)
	var entries []benchEntry
	var totalWall, totalExec float64
	failures := 0
	reportStart := time.Now()
	n := 0
	for _, e := range exp.All() {
		if !skipped[e.ID] {
			n++
		}
	}
	run.SetExperiments(n)
	for _, e := range exp.All() {
		if skipped[e.ID] {
			emit("== %s: SKIPPED ==\n\n", e.ID)
			continue
		}
		emit("== %s: %s ==\npaper: %s\n", e.ID, e.Title, e.Paper)
		run.Begin(e.ID)
		start := time.Now()
		tbl, err := e.Run(!shared.Full)
		wallMS := float64(time.Since(start)) / float64(time.Millisecond)
		captured := run.End(e.ID, err == nil)
		totalWall += wallMS
		if err != nil {
			emit("ERROR: %v\n\n", err)
			failures++
			continue
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
			entries = append(entries, entry)
			totalExec += captured.ExecMS
		}
		emit("%s", tbl.String())
		emit("\n")
		fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Millisecond))
	}
	run.Report(emit)
	fmt.Printf("report total: %s wall clock\n", time.Since(reportStart).Round(time.Millisecond))
	run.Finish()
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report.String()), 0o644); err != nil {
			run.Fail(1, fmt.Errorf("write %s: %v", *out, err))
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if *bench != "" {
		doc := benchReport{
			Scale:       scale,
			Jobs:        workers,
			Options:     shared.Options(),
			WallMS:      totalWall,
			ExecMS:      totalExec,
			Experiments: entries,
		}
		if doc.WallMS > 0 {
			doc.Speedup = doc.ExecMS / doc.WallMS
		}
		if err := writeBench(*bench, doc); err != nil {
			run.Fail(1, err)
		}
		fmt.Printf("bench metrics written to %s (%d experiments, %.1fx vs serial)\n",
			*bench, len(entries), doc.Speedup)
		if *golden != "" {
			if err := checkGolden(*golden, scale, entries, *updateGolden); err != nil {
				run.Fail(1, err)
			}
		}
	}
	if failures > 0 {
		run.Fail(1, fmt.Errorf("%d experiments failed", failures))
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
// (or rewrites the file when update is set). An experiment the golden
// does not name fails like a drifted one: passing it would pass a run
// the gate never checked.
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
	compared := 0
	for _, e := range entries {
		w, ok := want[e.ID]
		switch {
		case !ok:
			drift = append(drift, fmt.Sprintf("%s: ops %d, not in golden", e.ID, e.Ops))
		case e.Ops != w:
			drift = append(drift, fmt.Sprintf("%s: ops %d, golden %d", e.ID, e.Ops, w))
		default:
			compared++
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("op counts drifted from golden %s (after an intentional change, refresh with -update-golden):\n  %s",
			path, strings.Join(drift, "\n  "))
	}
	fmt.Printf("ops gate: %d experiments match golden\n", compared)
	return nil
}
