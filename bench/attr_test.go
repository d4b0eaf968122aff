package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestParseTracesFixture charges a checked-in `go tool pprof -traces`
// excerpt: generic-shape frames whose type arguments name other
// packages, (inline) frames, label lines, the sim receiver split, GC
// against the scheduler, and this benchmark's own frames.
func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"flat":          0.01, // not hier, which its type argument names
		"hier":          0.02, // a runtime allocation charged to its caller
		"sim.proc":      0.07, // Proc.loop, and Proc.dispatch inlined into Kernel.exec
		"sim.kernel":    0.05,
		"sim.sharded":   0.02, // Sharded methods and the NewShardedBarrier closure
		"runtime.sched": 0.02,
		"runtime.gc":    0.02, // mark worker and sweeper
		"engine":        0.01, // after a label line
		"workloads":     0.02, // the bench's thread body, and EdgeStream inlined into it
		"obs":           0.02, // stats, and the profiler's writer
		"other":         0.01, // system
		"analytic":      1.20,
	}
	for _, l := range hostLayers {
		if got := a.layers[l]; math.Abs(got-want[l]) > 1e-9 {
			t.Errorf("layer %s = %.3fs, want %.3fs", l, got, want[l])
		}
	}
	if len(a.layers) != len(hostLayers) {
		t.Errorf("%d layers, want exactly the %d of hostLayers: %v", len(a.layers), len(hostLayers), a.layers)
	}
	if a.total != 1.47 {
		t.Errorf("header total = %v, want 1.47", a.total)
	}
	if err := a.conserved(); err != nil {
		t.Error(err)
	}
}

func TestConservationCatchesLostSamples(t *testing.T) {
	a := attribution{layers: map[string]float64{"hier": 0.9, "cache": 0.05}, total: 1}
	if a.conserved() == nil {
		t.Error("layers summing to 95% of the total passed the conservation check")
	}
	a.layers["cache"] = 0.09
	if err := a.conserved(); err != nil {
		t.Errorf("layers within 2%% of the total: %v", err)
	}
}

func TestParseTracesRejectsMissingHeader(t *testing.T) {
	_, err := parseTraces(strings.NewReader("-----------+----\n      10ms   runtime.schedule\n"))
	if err == nil {
		t.Error("output without a Total samples header parsed")
	}
}

func TestSplitSymbol(t *testing.T) {
	for _, tc := range []struct{ sym, pkg, rest string }{
		{"tako/internal/hier.(*Hierarchy).Load", "tako/internal/hier", "(*Hierarchy).Load"},
		{"tako/internal/flat.New[go.shape.struct { tako/internal/hier.seq uint64 }]", "tako/internal/flat",
			"New[go.shape.struct { tako/internal/hier.seq uint64 }]"},
		{"tako/internal/workloads.EdgeStream.Dst", "tako/internal/workloads", "EdgeStream.Dst"},
		{"main.childMain", "main", "childMain"},
		{"runtime.gcDrain", "runtime", "gcDrain"},
		{"internal/runtime/atomic.(*Int32).Add", "internal/runtime/atomic", "(*Int32).Add"},
	} {
		if pkg, rest := splitSymbol(tc.sym); pkg != tc.pkg || rest != tc.rest {
			t.Errorf("splitSymbol(%q) = %q, %q; want %q, %q", tc.sym, pkg, rest, tc.pkg, tc.rest)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 0.01, "1.20s": 1.2, "500us": 0.0005, "2mins": 120} {
		if got, err := parseDuration(in); err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "ms", "10parsecs"} {
		if _, err := parseDuration(bad); err == nil {
			t.Errorf("parseDuration(%q) succeeded", bad)
		}
	}
}
