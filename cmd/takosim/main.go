// Command takosim runs a single täkō experiment (one of the paper's
// tables or figures) and prints its rows.
//
// Usage:
//
//	takosim -list
//	takosim -exp fig13 [-full] [-j N] [-verify]
//	takosim -exp fig13 -metrics out.json
//	takosim -exp fig13 -trace out.trace.json -trace-format chrome
//	takosim -exp fig13 -attr -slowest 10
//	takosim -exp fig13 -http :6060
//	takosim -exp fig25full -full
//	takosim -explore [-explore-runs N] [-explore-scenario substr]
//
// -full runs at full scale; for fig25full that is the paper-scale
// workload tier (uk-2002-class graphs, ≥100M edges, streamed
// generation). fig25full and ffcheck fast-forward their own baseline
// machines analytically (system.Config.FastForward); no flag warms the
// machines of other experiments.
//
// -explore runs the coherence interleaving explorer instead of an
// experiment: each seeded race scenario executes under systematically
// permuted same-cycle event orderings, and every schedule must satisfy
// the reference memory model and all hierarchy invariants. A nonzero
// exit reports a schedule that broke the model, with the choice prefix
// needed to replay it.
//
// -metrics writes every run's typed metrics snapshot (counters, gauges,
// latency histograms) as deterministic JSON. -trace streams structured
// events to a file: "chrome" produces a Chrome trace-event file loadable
// in https://ui.perfetto.dev (one process per simulated system, one
// track per component, nested callback spans), "jsonl" one JSON object
// per line. -trace-kinds filters events, -trace-min-dur drops spans
// shorter than the given cycle count to keep large traces focused.
//
// -attr arms transaction-level latency attribution: every state
// transition of the coherence machine is timestamped, so the metrics
// snapshot gains txn.state.cycles{kind,state} dwell histograms and a
// "where cycles go" decomposition prints after the experiment,
// conservation-checked against the transaction totals. -slowest K
// (implies -attr) additionally keeps the K slowest demand accesses per
// run with their full state timelines and prints the global top K.
// Attribution never changes simulated timing or architectural counts.
//
// -http ADDR serves live introspection while the experiment runs: run
// progress and scheduler load (/progress), metrics snapshots (/metrics),
// a transaction-coverage heatmap (/txn), and net/http/pprof under
// /debug/pprof/.
//
// -j fans the experiment's independent simulated systems across worker
// goroutines (each simulation stays single-threaded and deterministic;
// tables and metrics are byte-identical at any -j). Trace streams
// remain well-formed — sinks serialize writers — but spans from
// concurrently-running systems interleave in file order; sort by the
// process id (one per simulated system) when reading jsonl directly.
// With -explore, -j parallelizes schedule evaluation instead; findings
// are identical at any -j.
//
// The command arms one run window (system.StartCapture) for its whole
// run: every machine it builds, the explorer's included, takes -verify
// and -attr/-slowest from it and streams into its -trace sink, and
// runs it executes are memoized until the command ends.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tako/internal/cli"
	"tako/internal/exp"
	"tako/internal/oracle"
	"tako/internal/system"
)

func main() {
	var (
		shared = cli.Register(flag.CommandLine)
		list   = flag.Bool("list", false, "list available experiments")
		id     = flag.String("exp", "", "experiment id to run (e.g. fig6, table2)")

		explore         = flag.Bool("explore", false, "run the coherence interleaving explorer instead of an experiment (nonzero exit on any model-breaking schedule)")
		exploreRuns     = flag.Int("explore-runs", 0, "schedules to try per explorer scenario (0 = default budget)")
		exploreScenario = flag.String("explore-scenario", "", "restrict the explorer to scenarios whose name contains this substring")
	)
	flag.Parse()
	run := shared.Start("takosim")

	if *explore {
		cfg := oracle.DefaultExploreConfig()
		cfg.Scenario = *exploreScenario
		if *exploreRuns > 0 {
			cfg.MaxRuns = *exploreRuns
		}
		// -j parallelizes schedule evaluation; findings are identical at
		// any -j.
		cfg.Workers = system.Workers()
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
		start := time.Now()
		res, err := oracle.Explore(cfg)
		if err != nil {
			run.Fail(2, err)
		}
		fmt.Printf("\nexplored %d scenarios, %d schedules (max %d choice points) in %s\n",
			len(res.Scenarios), res.Runs, res.ChoicePoints, time.Since(start).Round(time.Millisecond))
		run.Finish()
		if n := len(res.Findings); n > 0 {
			run.Fail(1, fmt.Errorf("%d schedule(s) broke the model", n))
		}
		fmt.Println("all schedules satisfied the reference model and invariants")
		return
	}

	if *list || *id == "" {
		fmt.Println("available experiments:")
		for _, e := range exp.All() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Title)
			fmt.Printf("  %-12s paper: %s\n", "", e.Paper)
		}
		if *id == "" && !*list {
			os.Exit(2)
		}
		run.Finish()
		return
	}

	e, ok := exp.ByID(*id)
	if !ok {
		run.Fail(2, fmt.Errorf("unknown experiment %q (use -list)", *id))
	}

	run.SetExperiments(1)
	run.Begin(e.ID)
	fmt.Printf("== %s: %s ==\npaper: %s\n\n", e.ID, e.Title, e.Paper)
	start := time.Now()
	tbl, err := e.Run(!shared.Full)
	if err != nil {
		run.Fail(1, err)
	}
	fmt.Print(tbl.String())
	fmt.Printf("\n(%s wall clock)\n", time.Since(start).Round(time.Millisecond))
	run.End(e.ID, true)
	run.Report(func(format string, args ...any) { fmt.Printf(format, args...) })
	run.Finish()
}
