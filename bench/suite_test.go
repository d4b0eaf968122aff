package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json
// in step with the workloads and metric tables the bench reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bj struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var workloads, e2e, layers []entry
	for _, w := range workloadList {
		workloads = append(workloads, entry{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		e2e = append(e2e, entry{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &bound})
	}
	for _, m := range perLayer() {
		layers = append(layers, entry{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, c := range []struct {
		key       string
		got, want []entry
	}{{"workloads", bj.Workloads, workloads}, {"end_to_end", bj.EndToEnd, e2e}, {"per_layer", bj.PerLayer, layers}} {
		if !reflect.DeepEqual(c.got, c.want) {
			g, _ := json.Marshal(c.got)
			w, _ := json.Marshal(c.want)
			t.Errorf("BENCHMARK.json %s:\n got %s\nwant %s", c.key, g, w)
		}
	}
}

// TestQuartileMatchesPython pins quartile to statistics.quantiles(xs, n=4).
func TestQuartileMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		if q1, q3 := quartile(tc.xs, 1), quartile(tc.xs, 3); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles of %v = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if d := newDist([]float64{4, 1, 3, 2}, "s"); d.Median != 2.5 || d.N != 4 {
		t.Errorf("newDist median %v n %d, want 2.5 and 4", d.Median, d.N)
	}
}

// TestCompareBounds checks -compare against each metric's bound: within
// it passes, beyond it fails, and setup_s's absolute floor applies.
func TestCompareBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runS, setupS float64) string {
		res := results{Workloads: map[string]summary{}}
		for _, w := range workloadList {
			res.Workloads[w.name] = summary{EndToEnd: map[string]dist{
				"run_s":         {Median: runS, N: 5},
				"setup_s":       {Median: setupS, N: 5},
				"ns_per_access": {Median: runS * 1000, N: 5},
				"peak_rss_mb":   {Median: 100, N: 5},
			}}
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", 10, 0.002)
	for _, tc := range []struct {
		name          string
		runS, setupS  float64
		wantRegressed bool
	}{
		{"same", 10, 0.002, false},
		{"faster", 8, 0.001, false},
		{"slower within bound", 11.5, 0.002, false},
		{"slower beyond bound", 13, 0.002, true},
		{"setup doubled under the floor", 10, 0.004, false},
		{"setup beyond the floor", 10, 0.030, true},
	} {
		err := compareFiles(io.Discard, base, write(tc.name+".json", tc.runS, tc.setupS))
		if (err != nil) != tc.wantRegressed {
			t.Errorf("%s: compare error = %v, want regression %v", tc.name, err, tc.wantRegressed)
		}
	}
}
