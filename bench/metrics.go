package main

import (
	"strings"

	"tako/internal/stats"
	"tako/internal/system"
)

// metric is one reported quantity. Bound, for an end-to-end metric, is
// the share of the baseline median by which it may worsen before a
// change counts as a regression (BENCHMARK.json carries the same table;
// TestBenchmarkJSONMatchesMetrics keeps them in step).
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Floor is an absolute allowance under which a worsening never
	// counts, for metrics whose baseline is too small for a share alone.
	Floor float64
}

// endToEnd is what a user of the simulator sees, measured with tracing
// off. The bounds sit at least twice above the relative IQRs the README
// records and never below 5%.
var endToEnd = []metric{
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.020},
	{Name: "ns_per_access", Unit: "ns", Better: "lower", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// hostLayers are the buckets a traced rep's CPU samples are charged to,
// each reported as host.<layer>_s.
var hostLayers = []string{
	"sim.proc", "sim.kernel", "sim.sharded", "runtime.sched", "runtime.gc",
	"hier", "cache", "tlb", "flat", "mem", "noc", "dram", "engine", "core",
	"cpu", "analytic", "morphs", "workloads", "obs", "other",
}

// perLayer lists every per-layer metric of a traced run, in report order.
func perLayer() []metric {
	var out []metric
	for _, l := range hostLayers {
		out = append(out, metric{Name: "host." + l + "_s", Unit: "s", Better: "lower"})
	}
	lower := func(name, unit string) metric { return metric{Name: name, Unit: unit, Better: "lower"} }
	return append(out,
		lower("host.profile_samples", "count"),
		lower("trace_overhead", "ratio"),
		lower("sim.events", "count"),
		lower("sim.ns_per_event", "ns"),
		metric{Name: "sim.cpu_util", Unit: "ratio", Better: "higher"},
		lower("hier.accesses", "count"),
		lower("hier.l1.miss_ratio", "ratio"),
		lower("hier.l2.miss_ratio", "ratio"),
		lower("hier.l3.miss_ratio", "ratio"),
		lower("hier.coh.invalidations", "count"),
		lower("hier.rmo.issued", "count"),
		lower("hier.prefetch.issued", "count"),
		lower("hier.ns_per_access", "ns"),
		lower("noc.transfers", "count"),
		lower("dram.accesses", "count"),
		lower("dram.queue_wait.p99", "cycles"),
		lower("engine.callbacks", "count"),
		lower("engine.cb_skipped_ratio", "ratio"),
		lower("engine.instrs", "count"),
		lower("engine.ns_per_callback", "ns"),
		lower("analytic.ff_accesses", "count"),
		lower("analytic.ns_per_access", "ns"),
		lower("runtime.gc_cycles", "count"),
		lower("runtime.alloc_mb", "MB"),
		lower("runtime.allocs_per_access", "count"),
		lower("model.cycles", "cycles"),
		lower("model.ops", "count"),
		lower("model.load_latency.p50", "cycles"),
		lower("model.load_latency.p99", "cycles"),
	)
}

// counter sums a counter over all its label sets: a sharded build keeps
// some metrics per home tile ("dram.reads{home=3}").
func counter(snap stats.Snapshot, name string) uint64 {
	var n uint64
	for _, c := range snap.Counters {
		if c.Name == name || strings.HasPrefix(c.Name, name+"{") {
			n += c.Value
		}
	}
	return n
}

// histQuantile returns the largest p50 (q=50) or p99 of a histogram over
// its label sets; per-instance quantiles cannot be merged exactly.
func histQuantile(snap stats.Snapshot, name string, q int) float64 {
	var v float64
	for _, h := range snap.Histograms {
		if h.Name != name && !strings.HasPrefix(h.Name, name+"{") {
			continue
		}
		p := h.P99
		if q == 50 {
			p = h.P50
		}
		if p > v {
			v = p
		}
	}
	return v
}

// simAccesses counts the memory accesses cores and engines made,
// simulated or fast-forwarded: the denominator of ns_per_access.
func simAccesses(o outcome) uint64 {
	return hierAccesses(o.rec) + o.ffAccesses
}

func hierAccesses(rec *system.RunRecord) uint64 {
	m := rec.Metrics
	return counter(m, "l1.hits") + counter(m, "l1.misses") + counter(m, "el1.hits") + counter(m, "el1.misses")
}

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// modelCounts extracts a finished run's deterministic per-layer counts.
func modelCounts(o outcome) map[string]float64 {
	m := o.rec.Metrics
	c := func(name string) float64 { return float64(counter(m, name)) }
	missRatio := func(level string) float64 {
		return ratio(c(level+".misses"), c(level+".hits")+c(level+".misses"))
	}
	callbacks := c("cb.onMiss") + c("cb.onEviction") + c("cb.onWriteback")
	return map[string]float64{
		"sim.events":              float64(o.rec.KernelEvents),
		"hier.accesses":           float64(hierAccesses(o.rec)),
		"hier.l1.miss_ratio":      missRatio("l1"),
		"hier.l2.miss_ratio":      missRatio("l2"),
		"hier.l3.miss_ratio":      missRatio("l3"),
		"hier.coh.invalidations":  c("coh.invalidations"),
		"hier.rmo.issued":         c("rmo.issued"),
		"hier.prefetch.issued":    c("prefetch.issued"),
		"noc.transfers":           c("noc.transfers"),
		"dram.accesses":           float64(o.dramAccesses),
		"dram.queue_wait.p99":     histQuantile(m, "dram.queue.wait", 99),
		"engine.callbacks":        callbacks,
		"engine.cb_skipped_ratio": ratio(c("cb.skipped"), callbacks+c("cb.skipped")),
		"engine.instrs":           float64(o.engineInstrs),
		"analytic.ff_accesses":    float64(o.ffAccesses),
		"model.cycles":            float64(o.rec.Cycles),
		"model.ops":               float64(o.rec.Ops),
		"model.load_latency.p50":  histQuantile(m, "load.latency", 50),
		"model.load_latency.p99":  histQuantile(m, "load.latency", 99),
	}
}
