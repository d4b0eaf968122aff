// Command benchtraj assembles the CI perf-trajectory artifact: it parses
// `go test -bench` text output (any number of files) plus the
// takoreport -bench JSON report and emits one compact JSON document with
// every benchmark's metrics (ns/op, allocs/op, sim-accesses/s, ...) and
// the report's wall/exec timing per experiment. CI uploads the result as
// bench_trajectory.json so throughput and allocation trends are diffable
// across runs without re-parsing free-form bench logs.
//
// Usage:
//
//	benchtraj -o bench_trajectory.json [-report bench_report.json] bench1.txt bench2.txt ...
//
// Benchmark lines that repeat (go test -count N) stay separate entries
// in input order, so downstream tooling sees the full sample set.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// benchEntry is one parsed `go test -bench` result line.
type benchEntry struct {
	Name       string             `json:"name"`
	Iterations uint64             `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// reportExp is the per-experiment slice of the takoreport -bench report
// kept in the trajectory (run records are dropped — the trajectory
// tracks cost, not results).
type reportExp struct {
	ID         string  `json:"id"`
	Ops        uint64  `json:"ops"`
	Cycles     uint64  `json:"cycles"`
	WallMS     float64 `json:"wall_ms"`
	ExecMS     float64 `json:"exec_ms"`
	Speedup    float64 `json:"speedup_vs_serial"`
	CachedRuns int     `json:"cached_runs"`
}

// reportSummary is the aggregate slice of the -bench report.
type reportSummary struct {
	Scale       string      `json:"scale"`
	Jobs        int         `json:"jobs"`
	WallMS      float64     `json:"wall_ms"`
	ExecMS      float64     `json:"exec_ms"`
	Speedup     float64     `json:"speedup_vs_serial"`
	Experiments []reportExp `json:"experiments"`
}

// trajectory is the emitted document.
type trajectory struct {
	Benchmarks []benchEntry  `json:"benchmarks"`
	Sharded    *shardedSpeed `json:"sharded,omitempty"`
	// ShardedTako is the same speedup column for a täkō machine (live
	// engines running onMiss callbacks at the home tiles), from
	// BenchmarkShardedTakoVsClassic.
	ShardedTako *shardedSpeed  `json:"sharded_tako,omitempty"`
	FFWarmup    *ffSpeed       `json:"ff_warmup,omitempty"`
	Report      *reportSummary `json:"report,omitempty"`
}

// ffSpeed is the analytical fast-forward speedup column, assembled from
// the BenchmarkFFWarmup pair: the same warmup-dominated run with the
// warmup executed analytically versus fully simulated. Repeated samples
// reduce to the best (minimum) ns/op of each side.
type ffSpeed struct {
	AnalyticalNsOp float64 `json:"analytical_ns_op"`
	SimulatedNsOp  float64 `json:"simulated_ns_op"`
	// FFSpeedup is simulated ns/op over analytical ns/op (>1: skipping
	// the event kernel during warmup is that many times faster).
	FFSpeedup float64 `json:"ff_speedup"`
}

const ffBenchName = "BenchmarkFFWarmup/"

// buildFFSpeed pairs the fast-forward warmup benchmark's two
// sub-benchmarks into the ff_speedup column. Returns nil unless both
// sides are present with nonzero ns/op.
func buildFFSpeed(entries []benchEntry) *ffSpeed {
	best := map[string]float64{}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name, ffBenchName) {
			continue
		}
		ns, ok := e.Metrics["ns/op"]
		if !ok {
			continue
		}
		v := benchVariant(e.Name)
		if cur, seen := best[v]; !seen || ns < cur {
			best[v] = ns
		}
	}
	ana, sim := best["analytical"], best["simulated"]
	if ana <= 0 || sim <= 0 {
		return nil
	}
	return &ffSpeed{AnalyticalNsOp: ana, SimulatedNsOp: sim, FFSpeedup: sim / ana}
}

// shardedRow is one engine variant of the sharded-vs-classic machine
// benchmark, reduced to its best sample.
type shardedRow struct {
	Variant string  `json:"variant"`
	NsOp    float64 `json:"ns_op"`
	// SpeedupVsClassic is classic ns/op over this variant's ns/op (>1:
	// the sharded engine is faster). Omitted for the classic baseline row
	// itself.
	SpeedupVsClassic float64 `json:"speedup_vs_classic,omitempty"`
	// SingleCore marks a row measured on a host with one usable CPU
	// (cpus or gomaxprocs ≤ 1), where every worker width degenerates to
	// sequenced execution plus barrier overhead. Such rows are
	// annotations: trend tooling must not fold their speedups into
	// multi-core trajectories.
	SingleCore bool `json:"single_core,omitempty"`
}

// shardedSpeed is the sharded-vs-classic speedup column assembled from
// BenchmarkShardedVsClassic sub-benchmarks.
type shardedSpeed struct {
	Baseline string       `json:"baseline"`
	Rows     []shardedRow `json:"rows"`
	// SingleCore is set when every sample came from a single-core host:
	// the whole column is an annotation, not a speedup measurement.
	SingleCore bool `json:"single_core,omitempty"`
}

const (
	shardedBenchName     = "BenchmarkShardedVsClassic/"
	shardedTakoBenchName = "BenchmarkShardedTakoVsClassic/"
)

// benchVariant strips the benchmark prefix and Go's -GOMAXPROCS suffix:
// "BenchmarkShardedVsClassic/sharded-w2-8" → "sharded-w2".
func benchVariant(name string) string {
	v := name[strings.Index(name, "/")+1:]
	if i := strings.LastIndex(v, "-"); i > 0 {
		if _, err := strconv.Atoi(v[i+1:]); err == nil {
			v = v[:i]
		}
	}
	return v
}

// singleCore reports whether a sample ran on an effectively single-core
// host; samples without the cpus metric are assumed multi-core.
func singleCore(e benchEntry) bool {
	if v, ok := e.Metrics["cpus"]; ok && v <= 1 {
		return true
	}
	if v, ok := e.Metrics["gomaxprocs"]; ok && v <= 1 {
		return true
	}
	return false
}

// buildShardedSpeed pairs one sharded-vs-classic machine benchmark's
// sub-benchmarks (selected by name prefix) into a speedup column.
// Repeated samples (-count N) reduce to the best (minimum) ns/op;
// single-core samples are preferred strictly less than multi-core ones —
// a variant's row is marked single_core only when no multi-core sample
// exists for it, so a lone single-core sweep is annotated rather than
// averaged into the column. Returns nil when the benchmark logs carry no
// paired entries.
func buildShardedSpeed(entries []benchEntry, prefix string) *shardedSpeed {
	type acc struct {
		best       float64
		singleCore bool
		seen       bool
	}
	byVariant := map[string]*acc{}
	var order []string
	for _, e := range entries {
		if !strings.HasPrefix(e.Name, prefix) {
			continue
		}
		ns, ok := e.Metrics["ns/op"]
		if !ok {
			continue
		}
		v := benchVariant(e.Name)
		a := byVariant[v]
		if a == nil {
			a = &acc{singleCore: true}
			byVariant[v] = a
			order = append(order, v)
		}
		single := singleCore(e)
		switch {
		case !a.seen, a.singleCore && !single:
			a.best, a.singleCore, a.seen = ns, single, true
		case a.singleCore == single && ns < a.best:
			a.best = ns
		}
	}
	base, ok := byVariant["classic"]
	if !ok || len(order) < 2 {
		return nil
	}
	out := &shardedSpeed{Baseline: "classic", SingleCore: true}
	for _, v := range order {
		a := byVariant[v]
		row := shardedRow{Variant: v, NsOp: a.best, SingleCore: a.singleCore}
		if v != out.Baseline && a.best > 0 {
			row.SpeedupVsClassic = base.best / a.best
		}
		if !a.singleCore {
			out.SingleCore = false
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// parseBenchLine parses one `go test -bench` result line:
//
//	BenchmarkName/sub-8  1000  1234 ns/op  432 B/op  2 allocs/op  9.5 sim-accesses/s
//
// Returns ok=false for non-benchmark lines (headers, PASS, ok ...).
func parseBenchLine(line string) (benchEntry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchEntry{}, false
	}
	iters, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return benchEntry{}, false
	}
	e := benchEntry{
		Name:       strings.TrimSuffix(fields[0], "\t"),
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	// The remainder is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchEntry{}, false
		}
		e.Metrics[fields[i+1]] = v
	}
	if len(e.Metrics) == 0 {
		return benchEntry{}, false
	}
	return e, true
}

// parseBenchOutput collects every benchmark line from one bench log.
func parseBenchOutput(r io.Reader) ([]benchEntry, error) {
	var out []benchEntry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if e, ok := parseBenchLine(sc.Text()); ok {
			out = append(out, e)
		}
	}
	return out, sc.Err()
}

// loadReport reads a takoreport -bench JSON file into the trimmed
// trajectory shape.
func loadReport(path string) (*reportSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var full struct {
		reportSummary
		Experiments []struct {
			reportExp
			Runs json.RawMessage `json:"runs"` // dropped
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &full); err != nil {
		return nil, fmt.Errorf("parse %s: %v", path, err)
	}
	sum := full.reportSummary
	sum.Experiments = make([]reportExp, 0, len(full.Experiments))
	for _, e := range full.Experiments {
		sum.Experiments = append(sum.Experiments, e.reportExp)
	}
	return &sum, nil
}

func main() {
	var (
		out    = flag.String("o", "", "write the trajectory JSON here (default stdout)")
		report = flag.String("report", "", "takoreport -bench JSON to fold into the trajectory")
	)
	flag.Parse()

	traj := trajectory{Benchmarks: []benchEntry{}}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtraj: %v\n", err)
			os.Exit(1)
		}
		entries, err := parseBenchOutput(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtraj: %s: %v\n", path, err)
			os.Exit(1)
		}
		traj.Benchmarks = append(traj.Benchmarks, entries...)
	}
	traj.Sharded = buildShardedSpeed(traj.Benchmarks, shardedBenchName)
	traj.ShardedTako = buildShardedSpeed(traj.Benchmarks, shardedTakoBenchName)
	traj.FFWarmup = buildFFSpeed(traj.Benchmarks)
	if *report != "" {
		sum, err := loadReport(*report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtraj: %v\n", err)
			os.Exit(1)
		}
		traj.Report = sum
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtraj: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(traj); err != nil {
		fmt.Fprintf(os.Stderr, "benchtraj: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Printf("trajectory written to %s (%d benchmarks)\n", *out, len(traj.Benchmarks))
	}
}
