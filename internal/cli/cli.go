// Package cli is the flag set and run wiring that takosim and takoreport
// share: scale, parallelism, the process-wide system.Options, profiling,
// live introspection, the observability capture, and the post-run
// attribution / slowest-access / coverage / metrics / trace output. Each
// command keeps only its own flags and its experiment loop.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tako/internal/hier"
	"tako/internal/introspect"
	"tako/internal/morphs"
	"tako/internal/prof"
	"tako/internal/sched"
	"tako/internal/system"
	"tako/internal/trace"
)

// Flags holds the shared flags' values.
type Flags struct {
	// Full runs every experiment at full (slow) scale instead of quick
	// scale; fig25full then runs its paper-scale tier.
	Full bool

	jobs                 int
	opts                 system.Options
	attr                 bool
	metricsOut, traceOut string
	traceFormat          string
	traceKinds           string
	traceMinDur          uint64
	httpAddr             string
	cpuprof, memprof     string
	blockprof, mutexprof string
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Full, "full", false, "run at full (slow) scale instead of quick scale; fig25full runs its paper-scale tier (uk-2002-class, ≥100M edges, streamed generation)")
	fs.IntVar(&f.jobs, "j", 0, "simulations to run in parallel (0 = GOMAXPROCS; output is identical at any -j)")

	fs.BoolVar(&f.opts.Verify, "verify", false, "run with coherence-freshness assertions and the periodic hierarchy-wide invariant checker (slower; panics on the first violation), and print txn state-machine coverage")
	fs.BoolVar(&f.attr, "attr", false, "arm transaction-level latency attribution (per-state dwell histograms + the where-cycles-go table; never changes simulated timing)")
	fs.IntVar(&f.opts.SlowestK, "slowest", 0, "capture and print the K slowest demand accesses with their state timelines (implies -attr)")

	fs.StringVar(&f.metricsOut, "metrics", "", "write every run's metrics snapshot (JSON) to this file")
	fs.StringVar(&f.traceOut, "trace", "", "stream structured trace events to this file")
	fs.StringVar(&f.traceFormat, "trace-format", "chrome", "trace format: chrome (Perfetto-loadable) or jsonl")
	fs.StringVar(&f.traceKinds, "trace-kinds", "", "comma-separated event-kind filters (e.g. 'cb.*,dram.*,l3.*'); empty records everything")
	fs.Uint64Var(&f.traceMinDur, "trace-min-dur", 0, "drop spans shorter than this many cycles (instants are kept)")
	fs.StringVar(&f.httpAddr, "http", "", "serve live introspection (progress, metrics, txn coverage, pprof) on this address while running (e.g. :6060)")

	fs.StringVar(&f.cpuprof, "cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
	fs.StringVar(&f.memprof, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&f.blockprof, "blockprofile", "", "write a goroutine-blocking profile to this file at exit")
	fs.StringVar(&f.mutexprof, "mutexprofile", "", "write a mutex-contention profile to this file at exit")
	return f
}

// Options returns the run configuration the flags select.
func (f *Flags) Options() system.Options {
	o := f.opts
	o.Attribution = f.attr || o.SlowestK > 0
	return o
}

// Run is one command invocation, from Start to Finish.
type Run struct {
	prog  string
	flags *Flags
	opts  system.Options

	// Capture arms a capture window around each experiment (Begin/End).
	// Start sets it when an output needs run records (-metrics, -trace,
	// -attr, -slowest, -verify, -http); a command may also set it.
	Capture bool
	// Runs is every run captured by an experiment that succeeded.
	Runs []system.RunRecord

	insp      *introspect.Server
	stopProf  func() error
	capCfg    system.CaptureConfig
	traceFile *os.File
	traceSink trace.MultiSink
	nextPid   int
}

// Start applies the flags for the command prog: it validates and sets
// the run Options (exit 2 on a rejected combination), the worker count
// and the run cache, starts profiling and introspection, and opens the
// trace output.
func (f *Flags) Start(prog string) *Run {
	r := &Run{prog: prog, flags: f, opts: f.Options()}
	if err := r.opts.Validate(); err != nil {
		r.Fail(2, err)
	}
	stop, err := prof.Start(f.cpuprof, f.memprof, f.blockprof, f.mutexprof)
	if err != nil {
		r.Fail(1, err)
	}
	r.stopProf = stop
	system.SetOptions(r.opts)
	sched.SetWorkers(f.jobs)
	// The run cache is process-global and never evicts, so a skipped
	// experiment only changes which figure of a pair simulates first.
	morphs.SetRunCache(true)

	if f.httpAddr != "" {
		r.insp, err = introspect.Start(f.httpAddr)
		if err != nil {
			r.Fail(1, fmt.Errorf("-http: %v", err))
		}
		fmt.Printf("introspection server on http://%s\n", r.insp.Addr())
	}

	r.Capture = f.metricsOut != "" || f.traceOut != "" || r.opts.Attribution || r.opts.Verify || f.httpAddr != ""
	r.capCfg = system.CaptureConfig{TraceMinSpan: f.traceMinDur}
	for _, k := range strings.Split(f.traceKinds, ",") {
		if k = strings.TrimSpace(k); k != "" {
			r.capCfg.TraceKinds = append(r.capCfg.TraceKinds, k)
		}
	}
	if f.traceOut != "" {
		if r.traceFile, err = os.Create(f.traceOut); err != nil {
			r.Fail(1, err)
		}
		if r.traceSink, err = trace.SinkFor(f.traceFormat, r.traceFile); err != nil {
			r.Fail(2, err)
		}
		// StopCapture closes its sink at every window boundary; the one
		// trace file stays open across windows and closes in Finish.
		r.capCfg.Sink = trace.KeepOpen(r.traceSink)
	}
	return r
}

// Fail reports err and exits with code.
func (r *Run) Fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", r.prog, err)
	os.Exit(code)
}

// SetExperiments tells introspection how many experiments will run.
func (r *Run) SetExperiments(n int) {
	if r.insp != nil {
		r.insp.SetExperiments(n)
	}
}

// Begin starts experiment id: introspection progress and, when
// capturing, a capture window whose pids continue the previous window's,
// so one shared trace file never reuses a pid.
func (r *Run) Begin(id string) {
	if r.insp != nil {
		r.insp.StartExperiment(id)
	}
	if r.Capture {
		cfg := r.capCfg
		cfg.FirstPid = r.nextPid
		system.StartCapture(cfg)
	}
}

// End closes experiment id's capture window and returns what it
// collected; when ok, its runs join Runs and introspection.
func (r *Run) End(id string, ok bool) system.CaptureResult {
	var res system.CaptureResult
	if r.Capture {
		var err error
		if res, err = system.StopCapture(); err != nil {
			r.Fail(1, fmt.Errorf("capture: %v", err))
		}
		r.nextPid += res.Systems
		if ok {
			r.Runs = append(r.Runs, res.Runs...)
			if r.insp != nil {
				r.insp.PublishRuns(res.Runs)
			}
		}
	}
	if r.insp != nil {
		r.insp.FinishExperiment(id)
	}
	return res
}

// Report emits the post-run tables the flags asked for over Runs: the
// where-cycles-go attribution (-attr), the slowest accesses (-slowest)
// and the txn state-machine coverage (-verify).
func (r *Run) Report(emit func(format string, args ...any)) {
	if r.insp != nil {
		r.insp.SetPhase("writing report")
	}
	if r.opts.Attribution {
		atbl, err := system.AttributionReport(r.Runs)
		emit("\n%s", atbl.String())
		if err != nil {
			r.Fail(1, err)
		}
	}
	if r.opts.SlowestK > 0 {
		if stbl := system.SlowestReport(r.Runs, r.opts.SlowestK); stbl != nil {
			emit("\n%s", stbl.String())
		}
	}
	if r.opts.Verify {
		edges := system.AggregateTxnEdges(r.Runs)
		emit("\ntxn coverage: %d/%d legal edges visited\n", len(edges), len(hier.LegalEdges()))
		for _, u := range hier.UnvisitedEdges(edges) {
			emit("  unvisited: %-10s %s -> %s\n", u.Kind, u.From, u.To)
		}
	}
}

// Finish closes the trace, writes -metrics, stops introspection and
// profiling.
func (r *Run) Finish() {
	if r.traceFile != nil {
		err := r.traceSink.Close()
		if cerr := r.traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			r.Fail(1, fmt.Errorf("closing trace: %v", err))
		}
		fmt.Printf("trace written to %s (%s)\n", r.flags.traceOut, r.flags.traceFormat)
	}
	if r.flags.metricsOut != "" {
		f, err := os.Create(r.flags.metricsOut)
		if err != nil {
			r.Fail(1, err)
		}
		if err := system.WriteMetricsReport(f, r.Runs); err == nil {
			err = f.Close()
		}
		if err != nil {
			r.Fail(1, fmt.Errorf("writing metrics: %v", err))
		}
		fmt.Printf("metrics written to %s (%d runs)\n", r.flags.metricsOut, len(r.Runs))
	}
	if r.insp != nil {
		r.insp.SetPhase("done")
		r.insp.Close()
	}
	if err := r.stopProf(); err != nil {
		r.Fail(1, fmt.Errorf("writing profile: %v", err))
	}
}
