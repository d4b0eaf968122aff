package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// Registry is the typed metrics registry shared by the modeled
// components: named counters, gauges, and log-bucketed histograms, each
// optionally labeled (per tile, per controller, per callback kind).
//
// Hot paths resolve a handle once (Counter/Gauge/Histogram) and
// increment through it with no map lookup and no allocation; cold paths
// may use the name-based Inc/Add/Get. All handle methods are safe on nil
// receivers, so components whose registry was never attached pay a single
// predictable branch — see bench_test.go for the zero-cost-when-off
// measurements.
//
// The simulation kernel is single-threaded (one Proc runs at a time), so
// handle updates do no locking: one handle must never be updated from two
// goroutines at once. Handle resolution is mutex-guarded (it is a cold
// path).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	order    []string // first-touch order, for String()
}

// Label attaches a dimension to a metric name ("tile"=3, "ctrl"=0).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label with a formatted value.
func L(key string, value interface{}) Label {
	return Label{Key: key, Value: fmt.Sprint(value)}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// key renders name plus labels into the registry key:
// "dram.queue.depth{ctrl=2}". Labels are canonicalized by sorting on
// (key, value), so every argument order — and duplicate resolutions from
// different call sites — produces the same metric identity. Resolution
// is a cold path; the handles it returns are what hot paths hold.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels) > 1 && !sort.SliceIsSorted(labels, labelLess(labels)) {
		sorted := make([]Label, len(labels))
		copy(sorted, labels)
		sort.Slice(sorted, labelLess(sorted))
		labels = sorted
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// labelLess orders labels by (key, value) for canonicalization.
func labelLess(ls []Label) func(i, j int) bool {
	return func(i, j int) bool {
		if ls[i].Key != ls[j].Key {
			return ls[i].Key < ls[j].Key
		}
		return ls[i].Value < ls[j].Value
	}
}

// Counter returns the handle for the named counter, creating it if
// needed. A nil registry returns a nil handle, which drops increments.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
		r.order = append(r.order, k)
	}
	return c
}

// Gauge returns the handle for the named gauge, creating it if needed.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the handle for the named histogram, creating it if
// needed.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// Inc increments the named counter by 1 (cold-path convenience).
func (r *Registry) Inc(name string) { r.Counter(name).Inc() }

// Add increments the named counter by n (cold-path convenience).
func (r *Registry) Add(name string, n uint64) { r.Counter(name).Add(n) }

// Get returns the named counter's value (0 if absent or nil registry).
func (r *Registry) Get(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c, ok := r.counters[name]
	r.mu.Unlock()
	if ok {
		return c.Value()
	}
	return 0
}

// String renders the counters one per line in sorted order, for
// debugging and determinism fingerprints.
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	keys := make([]string, 0, len(r.counters))
	for k := range r.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-32s %12d\n", k, r.counters[k].Value())
	}
	return b.String()
}

// Counter is a monotonically increasing event count. The nil handle is
// valid and drops all updates.
type Counter struct {
	v uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count (0 for a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge records a sampled instantaneous value (queue depth, occupancy).
// It keeps the last sample plus max and mean over all samples. The nil
// handle is valid and drops all updates.
type Gauge struct {
	last, max int64
	n         uint64
	sum       int64
}

// Set records one sample.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.last = v
	if g.n == 0 || v > g.max {
		g.max = v
	}
	g.n++
	g.sum += v
}

// Value returns the last sample.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.last
}

// Max returns the maximum sample seen.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Samples returns how many samples were recorded.
func (g *Gauge) Samples() uint64 {
	if g == nil {
		return 0
	}
	return g.n
}

// Mean returns the mean over all samples (0 when empty).
func (g *Gauge) Mean() float64 {
	if g == nil || g.Samples() == 0 {
		return 0
	}
	return float64(g.sum) / float64(g.n)
}

// histBuckets is the bucket count: bucket i holds values whose bit length
// is i, i.e. [2^(i-1), 2^i), with bucket 0 holding the value 0.
const histBuckets = 65

// Histogram is a log2-bucketed histogram of non-negative integer samples
// (latencies in cycles, queue depths). Observe is O(1) with no
// allocation; quantiles interpolate within the matching power-of-two
// bucket. The nil handle is valid and drops all updates. The sum is an
// exact integer (samples are integers).
type Histogram struct {
	n        uint64
	sum      uint64
	min, max uint64
	buckets  [histBuckets]uint64
}

// Observe adds one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sum)
}

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() uint64 {
	if h.Count() == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-th quantile (0 ≤ q ≤ 1) by
// linear interpolation within the log2 bucket where the cumulative count
// crosses q·n. Estimates are exact to within a factor of 2 and clamped
// to [Min, Max].
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		// Bucket i spans [lo, hi): interpolate the rank's position.
		var lo, hi float64
		if i == 0 {
			lo, hi = 0, 1
		} else {
			lo = math.Exp2(float64(i - 1))
			hi = math.Exp2(float64(i))
		}
		est := lo + (hi-lo)*(rank-prev)/float64(c)
		if est < float64(h.min) {
			est = float64(h.min)
		}
		if est > float64(h.max) {
			est = float64(h.max)
		}
		return est
	}
	return float64(h.max)
}

// Snapshot is a deterministic, JSON-serializable view of a registry.
// Entries are sorted by full metric key, so identical runs produce
// byte-identical serializations.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// CounterSnap is one counter in a Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge in a Snapshot.
type GaugeSnap struct {
	Name    string  `json:"name"`
	Value   int64   `json:"value"`
	Max     int64   `json:"max"`
	Mean    float64 `json:"mean"`
	Samples uint64  `json:"samples"`
}

// HistSnap is one histogram in a Snapshot.
type HistSnap struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot captures the registry's current state. Safe on nil (returns an
// empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	s.Counters = []CounterSnap{}
	s.Gauges = []GaugeSnap{}
	s.Histograms = []HistSnap{}
	if r == nil {
		return s
	}
	for k, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: k, Value: c.Value()})
	}
	for k, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{
			Name: k, Value: g.Value(), Max: g.Max(), Mean: round6(g.Mean()), Samples: g.Samples(),
		})
	}
	for k, h := range r.hists {
		s.Histograms = append(s.Histograms, HistSnap{
			Name: k, Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
			Mean: round6(h.Mean()), P50: round6(h.Quantile(0.50)),
			P90: round6(h.Quantile(0.90)), P99: round6(h.Quantile(0.99)),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// round6 rounds to 6 decimal places so snapshots serialize to short,
// stable decimal strings.
func round6(v float64) float64 {
	return math.Round(v*1e6) / 1e6
}

// WriteJSON serializes the snapshot as indented JSON. Field order is
// fixed by the struct definitions and entries are sorted, so the output
// is byte-deterministic.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
