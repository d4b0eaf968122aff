package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os/exec"
	"strconv"
	"strings"
)

// cpuSamplePeriod is runtime/pprof's fixed CPU sampling period (100 Hz).
const cpuSamplePeriod = 0.01

// attribute charges a traced rep's CPU profile to layers, in seconds, and
// counts its samples. It reads the profile through `go tool pprof
// -traces`, so the bench needs no profile decoder.
func attribute(ctx context.Context, profile string) (map[string]float64, int64, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-symbolize=none", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	a, err := parseTraces(strings.NewReader(string(out)))
	if err != nil {
		return nil, 0, err
	}
	if err := a.conserved(); err != nil {
		return nil, 0, err
	}
	return a.layers, int64(math.Round(a.charged() / cpuSamplePeriod)), nil
}

// attribution is a profile's samples charged to layers, in seconds.
type attribution struct {
	layers map[string]float64
	total  float64 // "Total samples" from pprof's header
}

// charged sums the layers.
func (a attribution) charged() float64 {
	var s float64
	for _, v := range a.layers {
		s += v
	}
	return s
}

// conserved checks that the layers add up to the profile's total
// (within 2%: pprof rounds what it prints).
func (a attribution) conserved() error {
	if c := a.charged(); math.Abs(c-a.total) > 0.02*a.total {
		return fmt.Errorf("profile attribution lost samples: layers sum to %.3fs, pprof total %.3fs", c, a.total)
	}
	return nil
}

// parseTraces reads `go tool pprof -traces` output: a header, then one
// block per sample after a "-----------+---" separator. A block holds
// optional label lines ("%10s:  value"), then the stack innermost first
// ("%10s   frame"), the sample's value in the first frame line's column.
func parseTraces(r io.Reader) (attribution, error) {
	a := attribution{layers: map[string]float64{}}
	for _, l := range hostLayers {
		a.layers[l] = 0
	}
	var value float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			a.layers[layerOf(stack)] += value
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20) // generic instantiations make long frame names
	inBody, sawTotal := false, false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inBody = true
		case !inBody:
			if _, t, ok := strings.Cut(line, "Total samples = "); ok {
				v, err := parseDuration(strings.Fields(t)[0])
				if err != nil {
					return a, fmt.Errorf("pprof header %q: %w", line, err)
				}
				a.total, sawTotal = v, true
			}
		case len(line) <= 13 || line[10] == ':':
			// A label line, or blank.
		default:
			if col := strings.TrimSpace(line[:10]); col != "" {
				v, err := parseDuration(col)
				if err != nil {
					return a, fmt.Errorf("pprof sample %q: %w", line, err)
				}
				value = v
			}
			stack = append(stack, strings.TrimSuffix(strings.TrimSpace(line[13:]), " (inline)"))
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return a, err
	}
	if !sawTotal {
		return a, fmt.Errorf("pprof output has no \"Total samples\" header")
	}
	return a, nil
}

// parseDuration reads a pprof-formatted time ("10ms", "1.20s").
func parseDuration(s string) (float64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i <= 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, err
	}
	scale, ok := map[string]float64{
		"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "mins": 60, "hrs": 3600,
	}[s[i:]]
	if !ok {
		return 0, fmt.Errorf("bad duration unit in %q", s)
	}
	return v * scale, nil
}

// layerOf charges one sample, stack innermost first, to a layer: the
// package of its innermost frame from tako/internal or from this
// benchmark (package main, whose ff-scatter thread body is workload
// code). Samples with neither go to the runtime: garbage collection when
// a GC frame is on the stack, the scheduler otherwise.
func layerOf(stack []string) string {
	for _, f := range stack {
		pkg, rest := splitSymbol(f)
		switch {
		case pkg == "main":
			return "workloads"
		case pkg == "runtime/pprof":
			return "obs" // the profiler's own writer
		case strings.HasPrefix(pkg, "tako/internal/"):
			return internalLayer(strings.TrimPrefix(pkg, "tako/internal/"), rest)
		}
	}
	for _, f := range stack {
		if isGCFrame(f) {
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

// splitSymbol splits a function symbol into its package path and the
// rest. The path ends at the first '.' after its last '/'; type
// arguments may name other packages
// ("tako/internal/flat.(*Table[go.shape.struct { tako/internal/hier.seq … }]).Get"),
// so only the part before any '(' or '[' is searched.
func splitSymbol(sym string) (pkg, rest string) {
	head := sym
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(head[slash+1:], ".")
	if dot < 0 {
		return sym, ""
	}
	cut := slash + 1 + dot
	return sym[:cut], sym[cut+1:]
}

// internalLayer maps a tako/internal package to its layer; sim is split
// by the type a frame belongs to.
func internalLayer(pkg, rest string) string {
	switch pkg {
	case "sim":
		return simLayer(rest)
	case "stats", "trace":
		return "obs"
	case "hier", "cache", "tlb", "flat", "mem", "noc", "dram", "engine", "core", "cpu",
		"analytic", "morphs", "workloads":
		return pkg
	}
	return "other"
}

// simLayer splits package sim: procs and the primitives they block on,
// the sharded engine, and the event kernel (everything else).
func simLayer(rest string) string {
	name := rest
	if strings.HasPrefix(name, "(") {
		name = strings.TrimPrefix(strings.TrimPrefix(name, "("), "*")
	}
	if i := strings.IndexAny(name, ".[)"); i >= 0 {
		name = name[:i]
	}
	name = strings.TrimPrefix(strings.TrimPrefix(name, "New"), "Completed")
	switch name {
	case "Proc", "ProcPanic", "Future", "Semaphore", "WaitGroup", "Barrier":
		return "sim.proc"
	case "Sharded", "Shard", "ShardedBarrier":
		return "sim.sharded"
	}
	return "sim.kernel"
}

func isGCFrame(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
		"runtime.wbBuf", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return strings.Contains(f, "sweep")
}
