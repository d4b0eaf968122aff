package main

import (
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line    string
		ok      bool
		name    string
		iters   uint64
		metrics map[string]float64
	}{
		{
			line:  "BenchmarkHierarchyAccessAttributed/attr-8         \t       3\t  75043099 ns/op\t    133258 sim-accesses/s\t     432 B/op\t       2 allocs/op",
			ok:    true,
			name:  "BenchmarkHierarchyAccessAttributed/attr-8",
			iters: 3,
			metrics: map[string]float64{
				"ns/op": 75043099, "sim-accesses/s": 133258,
				"B/op": 432, "allocs/op": 2,
			},
		},
		{
			line:    "BenchmarkKernel-8   \t 1000000\t      1052 ns/op",
			ok:      true,
			name:    "BenchmarkKernel-8",
			iters:   1000000,
			metrics: map[string]float64{"ns/op": 1052},
		},
		{
			line:    "BenchmarkFig06Decompression-8  \t      2\t 501034512 ns/op\t         2.080 speedup\t  27373786 sim-cycles",
			ok:      true,
			name:    "BenchmarkFig06Decompression-8",
			iters:   2,
			metrics: map[string]float64{"ns/op": 501034512, "speedup": 2.080, "sim-cycles": 27373786},
		},
		{line: "goos: linux", ok: false},
		{line: "pkg: tako", ok: false},
		{line: "PASS", ok: false},
		{line: "ok  \ttako\t1.439s", ok: false},
		{line: "", ok: false},
		// A benchmark header with no metrics yet (mid-run output).
		{line: "BenchmarkKernel-8", ok: false},
		// Non-numeric iteration count.
		{line: "BenchmarkX notanumber 12 ns/op", ok: false},
	}
	for _, c := range cases {
		e, ok := parseBenchLine(c.line)
		if ok != c.ok {
			t.Errorf("parse(%q) ok = %v, want %v", c.line, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if e.Name != c.name || e.Iterations != c.iters {
			t.Errorf("parse(%q) = %q/%d, want %q/%d", c.line, e.Name, e.Iterations, c.name, c.iters)
		}
		if len(e.Metrics) != len(c.metrics) {
			t.Errorf("parse(%q) metrics = %v, want %v", c.line, e.Metrics, c.metrics)
			continue
		}
		for unit, want := range c.metrics {
			if got := e.Metrics[unit]; got != want {
				t.Errorf("parse(%q) %s = %v, want %v", c.line, unit, got, want)
			}
		}
	}
}

func TestParseBenchOutputKeepsSamplesInOrder(t *testing.T) {
	// -count 3 repeats the same benchmark; all samples survive in order.
	log := `goos: linux
goarch: amd64
pkg: tako
BenchmarkHierarchyThroughput-8   	       5	 200 ns/op	 100 sim-accesses/s
BenchmarkHierarchyThroughput-8   	       5	 210 ns/op	  95 sim-accesses/s
BenchmarkHierarchyThroughput-8   	       5	 190 ns/op	 105 sim-accesses/s
PASS
ok  	tako	3.1s
`
	entries, err := parseBenchOutput(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(entries))
	}
	want := []float64{200, 210, 190}
	for i, e := range entries {
		if e.Name != "BenchmarkHierarchyThroughput-8" {
			t.Errorf("entry %d name = %q", i, e.Name)
		}
		if e.Metrics["ns/op"] != want[i] {
			t.Errorf("entry %d ns/op = %v, want %v (order not preserved)", i, e.Metrics["ns/op"], want[i])
		}
	}
}

const multiCoreLog = `goos: linux
BenchmarkShardedVsClassic/classic-8         3  11000000 ns/op  8.000 cpus  8.000 gomaxprocs  300000 sim-cycles/s
BenchmarkShardedVsClassic/sharded-w1-8      3  12000000 ns/op  8.000 cpus  8.000 gomaxprocs  290000 sim-cycles/s
BenchmarkShardedVsClassic/sharded-w4-8      3   5500000 ns/op  8.000 cpus  8.000 gomaxprocs  600000 sim-cycles/s
PASS
`

const singleCoreLog = `BenchmarkShardedVsClassic/classic         2  11000000 ns/op  1.000 cpus  1.000 gomaxprocs
BenchmarkShardedVsClassic/sharded-w4      2  17000000 ns/op  1.000 cpus  1.000 gomaxprocs
`

func parseLog(t *testing.T, log string) []benchEntry {
	t.Helper()
	entries, err := parseBenchOutput(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestBenchVariant(t *testing.T) {
	for name, want := range map[string]string{
		"BenchmarkShardedVsClassic/classic-8":     "classic",
		"BenchmarkShardedVsClassic/classic":       "classic",
		"BenchmarkShardedVsClassic/sharded-w2-16": "sharded-w2",
		"BenchmarkShardedVsClassic/sharded-w2":    "sharded-w2",
	} {
		if got := benchVariant(name); got != want {
			t.Errorf("benchVariant(%q) = %q, want %q", name, got, want)
		}
	}
}

const ffLog = `goos: linux
BenchmarkFFWarmup/analytical-8   10  20000000 ns/op
BenchmarkFFWarmup/analytical-8   10  18000000 ns/op
BenchmarkFFWarmup/simulated-8     2 360000000 ns/op
PASS
`

func TestBuildFFSpeed(t *testing.T) {
	sp := buildFFSpeed(parseLog(t, ffLog))
	if sp == nil {
		t.Fatal("no ff_warmup summary built")
	}
	// Best analytical sample (18ms) against the simulated run (360ms).
	if sp.AnalyticalNsOp != 18000000 || sp.SimulatedNsOp != 360000000 {
		t.Fatalf("ns/op pair = %v/%v", sp.AnalyticalNsOp, sp.SimulatedNsOp)
	}
	if sp.FFSpeedup < 19.99 || sp.FFSpeedup > 20.01 {
		t.Errorf("ff_speedup = %v, want 20.0", sp.FFSpeedup)
	}
	// One-sided logs produce no column at all.
	if buildFFSpeed(parseLog(t, "BenchmarkFFWarmup/analytical-8  10  20000000 ns/op\n")) != nil {
		t.Error("ff_warmup built from the analytical side alone")
	}
	if buildFFSpeed(parseLog(t, multiCoreLog)) != nil {
		t.Error("ff_warmup built with no FFWarmup samples")
	}
}

func TestBuildShardedSpeedMultiCore(t *testing.T) {
	sp := buildShardedSpeed(parseLog(t, multiCoreLog), shardedBenchName)
	if sp == nil {
		t.Fatal("no sharded summary built")
	}
	if sp.SingleCore {
		t.Error("multi-core sweep marked single-core")
	}
	byVariant := map[string]shardedRow{}
	for _, r := range sp.Rows {
		byVariant[r.Variant] = r
	}
	if s := byVariant["sharded-w4"].SpeedupVsClassic; s < 1.99 || s > 2.01 {
		t.Errorf("sharded-w4 speedup = %v, want 2.0", s)
	}
	if s := byVariant["classic"].SpeedupVsClassic; s != 0 {
		t.Errorf("baseline row carries a speedup: %v", s)
	}
}

// A single-core sweep is annotated — per row and summary-wide — not
// silently folded into the speedup column; and when both single- and
// multi-core samples exist for a variant, only the multi-core ones
// count.
func TestBuildShardedSpeedSingleCoreAnnotation(t *testing.T) {
	sp := buildShardedSpeed(parseLog(t, singleCoreLog), shardedBenchName)
	if sp == nil {
		t.Fatal("no sharded summary built")
	}
	if !sp.SingleCore {
		t.Error("single-core sweep not annotated at the summary level")
	}
	for _, r := range sp.Rows {
		if !r.SingleCore {
			t.Errorf("row %s not annotated single-core", r.Variant)
		}
	}

	sp = buildShardedSpeed(parseLog(t, singleCoreLog+multiCoreLog), shardedBenchName)
	if sp.SingleCore {
		t.Error("mixed sweep marked single-core despite multi-core samples")
	}
	for _, r := range sp.Rows {
		if r.SingleCore {
			t.Errorf("row %s kept its single-core sample over the multi-core one", r.Variant)
		}
		if r.Variant == "sharded-w4" && (r.SpeedupVsClassic < 1.99 || r.SpeedupVsClassic > 2.01) {
			t.Errorf("sharded-w4 speedup = %v, want 2.0 (multi-core samples only)", r.SpeedupVsClassic)
		}
	}
}

const takoLog = `goos: linux
BenchmarkShardedTakoVsClassic/classic-8       3  12000000 ns/op  8.000 cpus  8.000 gomaxprocs
BenchmarkShardedTakoVsClassic/sharded-w4-8    3   4000000 ns/op  8.000 cpus  8.000 gomaxprocs
PASS
`

// The täkō-machine column is built from its own benchmark only — the
// baseline-machine samples never leak into it, and vice versa.
func TestBuildShardedTakoSpeedIsolated(t *testing.T) {
	entries := parseLog(t, multiCoreLog+takoLog)
	tako := buildShardedSpeed(entries, shardedTakoBenchName)
	if tako == nil {
		t.Fatal("no sharded_tako summary built")
	}
	if len(tako.Rows) != 2 {
		t.Fatalf("sharded_tako rows = %d, want 2", len(tako.Rows))
	}
	for _, r := range tako.Rows {
		if r.Variant == "sharded-w4" && (r.SpeedupVsClassic < 2.99 || r.SpeedupVsClassic > 3.01) {
			t.Errorf("sharded-w4 täkō speedup = %v, want 3.0", r.SpeedupVsClassic)
		}
	}
	base := buildShardedSpeed(entries, shardedBenchName)
	if len(base.Rows) != 3 {
		t.Fatalf("baseline column rows = %d, want 3 (täkō samples leaked in?)", len(base.Rows))
	}
	if buildShardedSpeed(parseLog(t, multiCoreLog), shardedTakoBenchName) != nil {
		t.Error("sharded_tako column built with no täkō samples")
	}
}
