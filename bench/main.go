// Command bench is the repository's benchmark: four case-study
// workloads, host-time end-to-end metrics, and per-layer metrics from a
// traced rep whose CPU profile is charged to layers. Every rep runs in
// its own child process, re-executed from this binary, one at a time.
//
// Usage, from this directory (bash bench/run.sh from the repository root
// builds into .bench_build/ and takes the same flags):
//
//	go run . -workload phi-tako -seed 1 -seconds 30 -trace 0  # one workload; the last line is a JSON result
//	go run . -reps 5 -o results.json                         # every workload round-robin, plus a traced rep each
//	go run . -compare a.json b.json                          # exit 1 if a median worsened beyond its bound
//
// README.md describes the metrics, the workloads and the calibration.
package main

import (
	"flag"
	"fmt"
	"os"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	size      string
	reps      int
	out       string
	compare   bool
	workdir   string
	child     bool
	profile   string
	setupOnly bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload for -seconds and print its JSON result (default: every workload for -reps)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every input generator")
	flag.IntVar(&o.seconds, "seconds", 30, "with -workload: how long to measure")
	flag.IntVar(&o.trace, "trace", 1, "1: add a traced rep for the per-layer metrics (with -workload, report only those)")
	flag.StringVar(&o.size, "size", "full", "input scale: full or smoke")
	flag.IntVar(&o.reps, "reps", 5, "without -workload: untraced reps of each workload")
	flag.StringVar(&o.out, "o", "", "without -workload: write the results JSON here")
	flag.BoolVar(&o.compare, "compare", false, "compare the two results files given as arguments")
	flag.StringVar(&o.workdir, "workdir", "", "directory for CPU profiles (default: a temporary directory)")
	flag.BoolVar(&o.child, "child", false, "internal: run one rep in this process")
	flag.StringVar(&o.profile, "profile", "", "internal: CPU profile path of a traced rep")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: end a child after setup")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	sc, ok := scales[o.size]
	if !ok {
		return fmt.Errorf("unknown -size %q (want full or smoke)", o.size)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	}
	if o.child {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		return childMain(w, sc, o.seed, o.profile, o.setupOnly)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	workdir := o.workdir
	if workdir == "" {
		if workdir, err = os.MkdirTemp("", "takobench"); err != nil {
			return err
		}
		defer os.RemoveAll(workdir)
	}
	r := &runner{exe: exe, size: o.size, seed: o.seed, workdir: workdir}
	if o.workload != "" {
		if _, err := workloadByName(o.workload); err != nil {
			return err
		}
		return driverRun(os.Stdout, r, o.workload, o.seconds, o.trace == 1)
	}
	return suiteRun(os.Stdout, r, o.reps, o.trace == 1, o.out)
}
