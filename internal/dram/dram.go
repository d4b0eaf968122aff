// Package dram models main memory: multiple memory controllers with a
// fixed access latency and a per-controller bandwidth limit (Table 3:
// 4 controllers, 100-cycle latency, 11.8 GB/s per controller). Lines are
// interleaved across controllers. Address ranges may be marked as NVM;
// writes there are persistent and charged at NVM energy (used by the §8.3
// transactions study).
package dram

import (
	"fmt"

	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/stats"
	"tako/internal/trace"
)

// Config describes the memory system.
type Config struct {
	Controllers   int
	Latency       sim.Cycle // fixed access latency per request
	CyclesPerLine sim.Cycle // per-controller occupancy per 64 B line (bandwidth)
}

// DefaultConfig returns the Table 3 memory system. 11.8 GB/s per
// controller at 2.4 GHz is 4.92 B/cycle, i.e. ~13 cycles of controller
// occupancy per 64 B line.
func DefaultConfig() Config {
	return Config{Controllers: 4, Latency: 100, CyclesPerLine: 13}
}

// DRAM is the backing memory with timing. Data lives in a mem.Memory so
// functional results can be checked against the timing simulation.
type DRAM struct {
	k     *sim.Kernel
	cfg   Config
	store *mem.Memory
	meter *energy.Meter

	nextFree []sim.Cycle // per-controller bandwidth queue
	nvm      []mem.Region

	// Stats.
	Reads, Writes uint64
	phase         string
	PhaseAccesses map[string]uint64

	// Observability (AttachMetrics/AttachTracer; all handles nil-safe).
	mReads, mWrites *stats.Counter
	mQueueWait      *stats.Histogram // cycles each request waited for its controller
	mDepth          []*stats.Gauge   // per-controller backlog, sampled every samplePeriod cycles
	lastSample      sim.Cycle
	tracer          *trace.Tracer
	compCtrl        []string // pre-rendered "dram.N" component labels
}

// New builds a DRAM model over the given backing store.
func New(k *sim.Kernel, cfg Config, store *mem.Memory, meter *energy.Meter) *DRAM {
	if cfg.Controllers <= 0 {
		panic("dram: need at least one controller")
	}
	return &DRAM{
		k:             k,
		cfg:           cfg,
		store:         store,
		meter:         meter,
		nextFree:      make([]sim.Cycle, cfg.Controllers),
		PhaseAccesses: make(map[string]uint64),
	}
}

// samplePeriod is how many cycles apart the queue-depth gauges sample.
const samplePeriod sim.Cycle = 1024

// AttachMetrics resolves this DRAM's registry handles: dram.reads and
// dram.writes counters, a dram.queue.wait latency histogram, and one
// dram.queue.depth{ctrl=N} gauge per controller sampled lazily every
// samplePeriod (1024) cycles. Sampling is lazy — the backlog is
// inspected at request time, never via kernel events — so it adds no
// events to the simulation and cannot perturb timing.
func (d *DRAM) AttachMetrics(r *stats.Registry) {
	d.mReads = r.Counter("dram.reads")
	d.mWrites = r.Counter("dram.writes")
	d.mQueueWait = r.Histogram("dram.queue.wait")
	d.mDepth = make([]*stats.Gauge, d.cfg.Controllers)
	d.compCtrl = make([]string, d.cfg.Controllers)
	for i := range d.mDepth {
		d.mDepth[i] = r.Gauge("dram.queue.depth", stats.L("ctrl", i))
		d.compCtrl[i] = fmt.Sprintf("dram.%d", i)
	}
}

// AttachTracer makes each controller emit one span per line transfer
// (dram.N track, kind dram.read/dram.write); nil disables.
func (d *DRAM) AttachTracer(t *trace.Tracer) { d.tracer = t }

// sampleDepth records each controller's backlog — how many whole requests
// deep its bandwidth queue currently is — at most once per sample period.
func (d *DRAM) sampleDepth(now sim.Cycle) {
	if d.mDepth == nil || (d.lastSample != 0 && now-d.lastSample < samplePeriod) {
		return
	}
	d.lastSample = now
	for i, free := range d.nextFree {
		depth := int64(0)
		if free > now {
			depth = int64((free - now + d.cfg.CyclesPerLine - 1) / d.cfg.CyclesPerLine)
		}
		d.mDepth[i].Set(depth)
	}
}

// Store returns the functional backing store.
func (d *DRAM) Store() *mem.Memory { return d.store }

// MarkNVM declares an address range to be non-volatile memory.
func (d *DRAM) MarkNVM(r mem.Region) { d.nvm = append(d.nvm, r) }

// IsNVM reports whether a falls in a non-volatile range.
func (d *DRAM) IsNVM(a mem.Addr) bool {
	for _, r := range d.nvm {
		if r.Contains(a) {
			return true
		}
	}
	return false
}

// SetPhase labels subsequent accesses for per-phase breakdowns (Figs 14
// and 17 report DRAM accesses split by PageRank phase).
func (d *DRAM) SetPhase(name string) { d.phase = name }

// Phase returns the current phase label.
func (d *DRAM) Phase() string { return d.phase }

// ControllerFor returns the controller index serving address a. Lines are
// interleaved across controllers.
func (d *DRAM) ControllerFor(a mem.Addr) int {
	return int((uint64(a) >> mem.LineShift) % uint64(d.cfg.Controllers))
}

// occupy reserves controller bandwidth and returns the completion time of
// one line transfer starting no earlier than now.
func (d *DRAM) occupy(ctrl int) sim.Cycle {
	now := d.k.Now()
	d.sampleDepth(now)
	start := now
	if d.nextFree[ctrl] > start {
		start = d.nextFree[ctrl]
	}
	d.mQueueWait.Observe(start - now)
	d.nextFree[ctrl] = start + d.cfg.CyclesPerLine
	return start + d.cfg.Latency
}

// transfer runs one line transfer through a's controller, emitting its
// span (request arrival through transfer completion) when traced, and
// returns a pooled future that completes when the transfer does.
func (d *DRAM) transfer(a mem.Addr, kind string) *sim.Future {
	ctrl := d.ControllerFor(a)
	now := d.k.Now()
	done := d.occupy(ctrl)
	if d.tracer != nil && d.compCtrl != nil {
		d.tracer.EmitSpan(now, done, d.compCtrl[ctrl], kind, a.Line().String())
	}
	f := d.k.GetFuture()
	f.CompleteAt(done)
	return f
}

func (d *DRAM) account(a mem.Addr, write bool) {
	if d.phase != "" {
		d.PhaseAccesses[d.phase]++
	}
	if d.meter != nil {
		d.meter.Add(energy.DRAMAccess, 1)
		if write && d.IsNVM(a) {
			d.meter.Add(energy.NVMWrite, 1)
		}
	}
}

// ReadLine fetches the line containing a: the data is copied into dst
// at once (the simulator serializes conflicting accesses above this
// layer), and the returned future completes when the transfer finishes.
//
// The future comes from the kernel's pool and returns to it when its
// completion event fires, so a steady stream of transfers allocates
// nothing here: a caller waits on it at once or drops it, and keeps no
// reference past the wake.
func (d *DRAM) ReadLine(a mem.Addr, dst *mem.Line) *sim.Future {
	d.Reads++
	d.mReads.Inc()
	d.account(a, false)
	d.store.PeekLine(a, dst)
	return d.transfer(a, "dram.read")
}

// WriteLine writes the line containing a: the data is applied at once,
// and the returned future, pooled as ReadLine's is, completes when the
// controller finishes the transfer. A writeback no thread waits on
// drops it; its completion event still holds the simulation open until
// the transfer drains.
func (d *DRAM) WriteLine(a mem.Addr, src *mem.Line) *sim.Future {
	d.Writes++
	d.mWrites.Inc()
	d.account(a, true)
	d.store.WriteLine(a, src)
	return d.transfer(a, "dram.write")
}

// Accesses returns total line transfers (reads + writes).
func (d *DRAM) Accesses() uint64 { return d.Reads + d.Writes }
