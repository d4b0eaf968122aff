package hier

import (
	"fmt"

	"tako/internal/stats"
	"tako/internal/trace"
)

// hotMetrics holds pre-resolved registry handles for every fixed-name
// hot-path event, so incrementing is a nil check and an add — no map
// lookup, no allocation (bench_test.go at the repo root locks this in).
type hotMetrics struct {
	l1Hits, l1Misses   *stats.Counter
	el1Hits, el1Misses *stats.Counter
	l2Hits, l2Misses   *stats.Counter
	l3Hits, l3Misses   *stats.Counter

	// cb counts callback invocations by kind (indexed by CallbackKind).
	cb        [3]*stats.Counter
	cbSkipped *stats.Counter

	l2Writebacks *stats.Counter
	l3Writebacks *stats.Counter
	l3Backinval  *stats.Counter

	cohUpgrades      *stats.Counter
	cohInvalidations *stats.Counter
	cohDowngrades    *stats.Counter
	snoopMigrations  *stats.Counter

	ntStores       *stats.Counter
	flushLines     *stats.Counter
	prefetchIssued *stats.Counter

	rmoIssued, rmoHits, rmoMisses *stats.Counter

	// loadLat is the demand-load latency histogram (cycles); it powers
	// the p50/p90/p99 columns of metrics snapshots, complementing the
	// LoadLat Dist used by the figure tables.
	loadLat *stats.Histogram
}

func (m *hotMetrics) resolve(r *stats.Registry) {
	m.l1Hits, m.l1Misses = r.Counter("l1.hits"), r.Counter("l1.misses")
	m.el1Hits, m.el1Misses = r.Counter("el1.hits"), r.Counter("el1.misses")
	m.l2Hits, m.l2Misses = r.Counter("l2.hits"), r.Counter("l2.misses")
	m.l3Hits, m.l3Misses = r.Counter("l3.hits"), r.Counter("l3.misses")
	for k := CbMiss; k <= CbWriteback; k++ {
		m.cb[k] = r.Counter("cb." + k.String())
	}
	m.cbSkipped = r.Counter("cb.skipped")
	m.l2Writebacks = r.Counter("l2.writebacks")
	m.l3Writebacks = r.Counter("l3.writebacks")
	m.l3Backinval = r.Counter("l3.backinval")
	m.cohUpgrades = r.Counter("coh.upgrades")
	m.cohInvalidations = r.Counter("coh.invalidations")
	m.cohDowngrades = r.Counter("coh.downgrades")
	m.snoopMigrations = r.Counter("snoop.migrations")
	m.ntStores = r.Counter("nt.stores")
	m.flushLines = r.Counter("flush.lines")
	m.prefetchIssued = r.Counter("prefetch.issued")
	m.rmoIssued = r.Counter("rmo.issued")
	m.rmoHits = r.Counter("rmo.hits")
	m.rmoMisses = r.Counter("rmo.misses")
	m.loadLat = r.Histogram("load.latency")
}

// top returns the (hits, misses) pair for the level an access tops out
// at: the core L1d, or the engine L1d for engine-issued accesses.
func (m *hotMetrics) top(engine bool) (hits, misses *stats.Counter) {
	if engine {
		return m.el1Hits, m.el1Misses
	}
	return m.l1Hits, m.l1Misses
}

// componentNames pre-renders the per-tile trace component labels so the
// hot paths never format strings when emitting.
type componentNames struct {
	core, l2, l3 []string
}

func newComponentNames(tiles int) componentNames {
	var c componentNames
	for i := 0; i < tiles; i++ {
		c.core = append(c.core, fmt.Sprintf("core.%d", i))
		c.l2 = append(c.l2, fmt.Sprintf("l2.%d", i))
		c.l3 = append(c.l3, fmt.Sprintf("l3.%d", i))
	}
	return c
}

// Tracer returns the attached tracer (nil when tracing is off), so the
// engines and system plumbing share the hierarchy's tracer.
func (h *Hierarchy) Tracer() *trace.Tracer { return h.tracer }
