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
//	takosim -exp fig13 -ff 1000000 [-ff-auto]
//	takosim -exp fig25full -scale full
//	takosim -explore [-explore-runs N] [-explore-scenario substr]
//
// -ff N warms each baseline (NoTako) machine by running its first N
// core memory accesses through the analytical fast-forward engine — a
// reuse-distance collector and per-level hit-probability model, no
// event kernel — then seeds caches, TLBs, and the directory from the
// collector's steady-state occupancy and switches the event kernel on.
// -ff-auto instead ends warmup at analytical miss-ratio convergence
// (bounded by -ff when both are given). Cycle counts then cover only
// the simulated window; architectural counters cover only post-warmup
// traffic. -scale full switches scale-aware experiments (fig25full) to
// the paper-scale workload tier (uk-2002-class graphs, ≥100M edges,
// streamed generation).
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
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tako/internal/exp"
	"tako/internal/hier"
	"tako/internal/introspect"
	"tako/internal/morphs"
	"tako/internal/oracle"
	"tako/internal/prof"
	"tako/internal/sched"
	"tako/internal/system"
	"tako/internal/trace"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list available experiments")
		id     = flag.String("exp", "", "experiment id to run (e.g. fig6, table2)")
		full   = flag.Bool("full", false, "run at full (slow) scale instead of quick scale")
		ff     = flag.Uint64("ff", 0, "fast-forward the first N core memory accesses of each baseline machine analytically (reuse-distance warmup, no event kernel), then switch the event kernel on with warm caches/TLBs/directory")
		ffAuto = flag.Bool("ff-auto", false, "end fast-forward as soon as the analytical per-level miss ratios converge (bounded by -ff when both are given)")
		scale  = flag.String("scale", "quick", "workload tier for scale-aware experiments (fig25full): quick or full (uk-2002-class, ≥100M edges)")
		jobs   = flag.Int("j", 0, "simulations to run in parallel (0 = GOMAXPROCS; output is identical at any -j)")

		sharded      = flag.Bool("sharded", false, "host the machine (baseline or täkō) on the tile-sharded message-passing engine — one kernel per tile, cross-tile traffic as lookahead-respecting messages; cycle counts differ from the classic engine but are byte-identical at any -shard-workers")
		shardWorkers = flag.Int("shard-workers", 0, "worker goroutines per sharded simulation (≤1 = deterministic sequenced schedule; results identical at any count)")
		verify       = flag.Bool("verify", false, "run with coherence-freshness assertions and the periodic hierarchy-wide invariant checker (slower; panics on the first violation)")

		metricsOut  = flag.String("metrics", "", "write per-run metrics snapshots (JSON) to this file")
		traceOut    = flag.String("trace", "", "stream structured trace events to this file")
		traceFormat = flag.String("trace-format", "chrome", "trace format: chrome (Perfetto-loadable) or jsonl")
		traceKinds  = flag.String("trace-kinds", "", "comma-separated event-kind filters (e.g. 'cb.*,dram.*,l3.*'); empty records everything")
		traceMinDur = flag.Uint64("trace-min-dur", 0, "drop spans shorter than this many cycles (instants are kept)")

		attr     = flag.Bool("attr", false, "arm transaction-level latency attribution (per-state dwell histograms + the where-cycles-go table; never changes simulated timing)")
		slowest  = flag.Int("slowest", 0, "capture and print the K slowest demand accesses with their state timelines (implies -attr)")
		httpAddr = flag.String("http", "", "serve live introspection (progress, metrics, txn coverage, pprof) on this address while running (e.g. :6060)")

		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		blockprofile = flag.String("blockprofile", "", "write a goroutine-blocking profile to this file at exit")
		mutexprofile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file at exit")

		explore         = flag.Bool("explore", false, "run the coherence interleaving explorer instead of an experiment (nonzero exit on any model-breaking schedule)")
		exploreRuns     = flag.Int("explore-runs", 0, "schedules to try per explorer scenario (0 = default budget)")
		exploreScenario = flag.String("explore-scenario", "", "restrict the explorer to scenarios whose name contains this substring")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile, *blockprofile, *mutexprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "takosim: %v\n", err)
		os.Exit(1)
	}

	sched.SetWorkers(*jobs)
	system.SetDefaultSharded(*sharded, *shardWorkers)
	system.SetDefaultFastForward(*ff, *ffAuto)
	if err := exp.SetScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "takosim: %v\n", err)
		os.Exit(2)
	}
	morphs.SetRunCache(true)

	if *verify {
		hier.SetVerifyDefaults(true, 128)
	}
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
			fmt.Fprintf(os.Stderr, "takosim: -http: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("introspection server on http://%s\n", insp.Addr())
		defer insp.Close()
	}

	if *explore {
		cfg := oracle.DefaultExploreConfig()
		cfg.Scenario = *exploreScenario
		if *exploreRuns > 0 {
			cfg.MaxRuns = *exploreRuns
		}
		// -j parallelizes schedule evaluation; findings are identical at
		// any -j.
		cfg.Workers = sched.Workers()
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
		start := time.Now()
		res, err := oracle.Explore(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "takosim: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("\nexplored %d scenarios, %d schedules (max %d choice points) in %s\n",
			len(res.Scenarios), res.Runs, res.ChoicePoints, time.Since(start).Round(time.Millisecond))
		stopProf()
		if n := len(res.Findings); n > 0 {
			fmt.Fprintf(os.Stderr, "takosim: %d schedule(s) broke the model\n", n)
			os.Exit(1)
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
		stopProf()
		return
	}

	e, ok := exp.ByID(*id)
	if !ok {
		fmt.Fprintf(os.Stderr, "takosim: unknown experiment %q (use -list)\n", *id)
		os.Exit(2)
	}

	// Attribution, coverage, slow-access, and introspection reporting all
	// read from captured run records, so any of them arms the capture.
	capturing := *metricsOut != "" || *traceOut != "" || *attr || *verify || *httpAddr != ""
	var traceFile *os.File
	if capturing {
		cfg := system.CaptureConfig{TraceMinSpan: *traceMinDur}
		for _, k := range strings.Split(*traceKinds, ",") {
			if k = strings.TrimSpace(k); k != "" {
				cfg.TraceKinds = append(cfg.TraceKinds, k)
			}
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "takosim: %v\n", err)
				os.Exit(1)
			}
			traceFile = f
			sink, err := trace.SinkFor(*traceFormat, f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "takosim: %v\n", err)
				os.Exit(2)
			}
			cfg.Sink = sink
		}
		system.StartCapture(cfg)
	}

	if insp != nil {
		insp.SetExperiments(1)
		insp.StartExperiment(e.ID)
	}
	fmt.Printf("== %s: %s ==\npaper: %s\n\n", e.ID, e.Title, e.Paper)
	start := time.Now()
	tbl, err := e.Run(!*full)
	if err != nil {
		fmt.Fprintf(os.Stderr, "takosim: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(tbl.String())
	fmt.Printf("\n(%s wall clock)\n", time.Since(start).Round(time.Millisecond))
	if insp != nil {
		insp.FinishExperiment(e.ID)
	}

	if capturing {
		captured, err := system.StopCapture()
		if err != nil {
			fmt.Fprintf(os.Stderr, "takosim: closing trace: %v\n", err)
			os.Exit(1)
		}
		if insp != nil {
			insp.PublishRuns(captured.Runs)
			insp.SetPhase("done")
		}
		if *attr {
			atbl, err := system.AttributionReport(captured.Runs)
			fmt.Printf("\n%s", atbl.String())
			if err != nil {
				fmt.Fprintf(os.Stderr, "takosim: %v\n", err)
				os.Exit(1)
			}
		}
		if *slowest > 0 {
			if stbl := system.SlowestReport(captured.Runs, *slowest); stbl != nil {
				fmt.Printf("\n%s", stbl.String())
			}
		}
		if *verify {
			edges := system.AggregateTxnEdges(captured.Runs)
			unvisited := hier.UnvisitedEdges(edges)
			fmt.Printf("\ntxn coverage: %d/%d legal edges visited\n",
				len(edges), len(hier.LegalEdges()))
			for _, u := range unvisited {
				fmt.Printf("  unvisited: %-10s %s -> %s\n", u.Kind, u.From, u.To)
			}
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "takosim: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("trace written to %s (%s)\n", *traceOut, *traceFormat)
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "takosim: %v\n", err)
				os.Exit(1)
			}
			if err := system.WriteMetricsReport(f, captured.Runs); err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "takosim: writing metrics: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("metrics written to %s (%d runs)\n", *metricsOut, len(captured.Runs))
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "takosim: writing profile: %v\n", err)
		os.Exit(1)
	}
}
