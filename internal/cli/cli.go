// Package cli is the flag set and run wiring that takosim and takoreport
// share: scale, parallelism, the system.Options, profiling, live
// introspection, the run window that carries them, and the post-run
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
	"tako/internal/prof"
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

// Run is one command invocation, from Start to Finish. Its run window
// (system.StartCapture) is armed for the whole command.
type Run struct {
	prog  string
	flags *Flags
	opts  system.Options

	// Runs is every run captured by an experiment that succeeded.
	Runs []system.RunRecord

	insp      *introspect.Server
	stopProf  func() error
	traceFile *os.File
	// mark is the window's progress when the current experiment began.
	mark system.Progress
}

// Start applies the flags for the command prog: it validates the run
// Options (exit 2 on a rejected combination), starts profiling and
// introspection, opens the trace output, and arms the run window with
// the Options, the worker count and the trace sink.
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

	if f.httpAddr != "" {
		r.insp, err = introspect.Start(f.httpAddr)
		if err != nil {
			r.Fail(1, fmt.Errorf("-http: %v", err))
		}
		fmt.Printf("introspection server on http://%s\n", r.insp.Addr())
	}

	cfg := system.CaptureConfig{Options: r.opts, Workers: f.jobs, TraceMinSpan: f.traceMinDur}
	for _, k := range strings.Split(f.traceKinds, ",") {
		if k = strings.TrimSpace(k); k != "" {
			cfg.TraceKinds = append(cfg.TraceKinds, k)
		}
	}
	if f.traceOut != "" {
		if r.traceFile, err = os.Create(f.traceOut); err != nil {
			r.Fail(1, err)
		}
		if cfg.Sink, err = trace.SinkFor(f.traceFormat, r.traceFile); err != nil {
			r.Fail(2, err)
		}
	}
	system.StartCapture(cfg)
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

// Begin starts experiment id: introspection progress and a mark on the
// run window, which End reads back.
func (r *Run) Begin(id string) {
	if r.insp != nil {
		r.insp.StartExperiment(id)
	}
	r.mark = system.CaptureProgress()
}

// End finishes experiment id and returns what the run window collected
// since Begin; when ok, its runs join Runs.
func (r *Run) End(id string, ok bool) system.CaptureResult {
	p := system.CaptureProgress()
	res := system.CaptureResult{
		Runs:   system.CaptureRuns()[r.mark.Submitted:],
		ExecMS: p.ExecMS - r.mark.ExecMS,
		Cached: p.Cached - r.mark.Cached,
	}
	if ok {
		r.Runs = append(r.Runs, res.Runs...)
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

// Finish stops the run window, which closes the trace sink, closes the
// trace file, writes -metrics, and stops introspection and profiling.
func (r *Run) Finish() {
	_, err := system.StopCapture()
	if r.traceFile != nil {
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
