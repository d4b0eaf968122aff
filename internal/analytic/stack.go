// Package analytic is the analytical cache model behind fast-forward
// warmup (system.Config.FastForward). Its Collector is fed straight from
// the workload access stream, with no event kernel, and keeps exact
// functional content filters for each tile's private levels and dTLB,
// exact LRU stack distances for the shared level's private-miss-filtered
// stream, and a bounded recency record for warm-state seeding. Its Model
// turns those observations into miss-ratio and latency estimates for the
// Table 3 hierarchy. The approach follows Gysi et al., "A Fast
// Analytical Model of Fully Associative Caches" (PAPERS.md): reuse
// distances are orders of magnitude cheaper to collect than event-driven
// simulation and capture exactly the locality signal the hierarchy's
// miss behaviour depends on.
package analytic

import "tako/internal/flat"

// Stack computes exact LRU stack distances (the number of distinct keys
// touched since a key's previous touch) in O(log n) per access: keys map
// to monotonically increasing slots, a Fenwick tree counts live keys per
// slot range, and a compaction pass recycles the slot space — preserving
// recency order exactly — whenever it fills.
//
// Capacity is bounded: at compaction, only the keepMax most recently
// touched keys survive; older keys are dropped (counted in Dropped) and
// report cold on their next touch. keepMax is chosen far above every
// modeled cache capacity, so bounding never perturbs a finite estimate —
// a key older than keepMax distinct lines would miss everywhere anyway.
type Stack struct {
	bit  []uint32        // Fenwick tree: bit counts of live slots
	keys []uint64        // slot -> key mirror (stale below a key's newest slot)
	pos  flat.Table[int] // key -> slot
	next int             // next free slot (logical length)
	live int             // keys currently tracked
	keep int             // survivors per compaction (drop-tail bound)

	// Cold counts first touches (including re-touches of dropped keys);
	// Dropped counts keys discarded by the bound.
	Cold    uint64
	Dropped uint64

	// compact scratch, reused across compactions.
	scratch []uint64
}

// NewStack returns a stack-distance tracker keeping at most keepMax keys
// (≤ 0 selects a default of 1<<21, ≈128 MB of line-granular working set).
func NewStack(keepMax int) *Stack {
	if keepMax <= 0 {
		keepMax = 1 << 21
	}
	s := &Stack{keep: keepMax}
	s.resetBIT(1 << 10)
	return s
}

// resetBIT empties the Fenwick tree and slot mirror, sized for n slots;
// the arrays are reused when the size is unchanged, so steady-state
// compactions allocate nothing.
func (s *Stack) resetBIT(n int) {
	if len(s.keys) == n {
		clear(s.bit)
	} else {
		s.bit = make([]uint32, n+1)
		s.keys = make([]uint64, n)
	}
	s.next = 0
}

// add updates the Fenwick tree at slot i by delta (+1/-1).
func (s *Stack) add(i int, delta int32) {
	for i++; i < len(s.bit); i += i & -i {
		s.bit[i] = uint32(int32(s.bit[i]) + delta)
	}
}

// sum returns the count of live slots in [0, i].
func (s *Stack) sum(i int) int {
	var n uint32
	for i++; i > 0; i -= i & -i {
		n += s.bit[i]
	}
	return int(n)
}

// Touch records an access to key and returns its LRU stack distance: the
// number of distinct keys touched since key's previous touch. cold is
// true on a first touch (or a re-touch after the key was dropped by the
// bound), in which case dist is meaningless.
func (s *Stack) Touch(key uint64) (dist int, cold bool) {
	if s.next > 0 && s.keys[s.next-1] == key {
		// Immediate re-touch of the MRU key: distance 0, recency order
		// unchanged — skip the table and Fenwick work entirely.
		return 0, false
	}
	if s.next+1 >= len(s.bit) {
		s.compact()
	}
	ref, ok := s.pos.GetOrPut(key, s.next)
	if ok {
		// Keys more recent than this one = live keys in slots above it.
		slot := *ref
		*ref = s.next
		dist = s.live - s.sum(slot)
		s.add(slot, -1)
	} else {
		cold = true
		s.Cold++
		s.live++
	}
	s.keys[s.next] = key
	s.add(s.next, 1)
	s.next++
	return dist, cold
}

// Live returns the number of keys currently tracked.
func (s *Stack) Live() int { return s.live }

// compact rebuilds the slot space: surviving keys are renumbered 0..n-1
// in recency order (so every subsequent distance is unchanged), the
// least-recent keys beyond the keep bound are dropped, and the Fenwick
// tree grows geometrically until it amortizes compaction cost against
// the keep bound. No sorting: the slot mirror already enumerates keys in
// recency order — a mirror entry is current iff it is the key's newest
// slot — so one linear walk collects the survivors.
func (s *Stack) compact() {
	s.scratch = s.scratch[:0]
	for slot := 0; slot < s.next; slot++ {
		k := s.keys[slot]
		if p, ok := s.pos.Get(k); ok && p == slot {
			s.scratch = append(s.scratch, k)
		}
	}
	live := s.scratch
	if drop := len(live) - s.keep; drop > 0 {
		s.Dropped += uint64(drop)
		live = live[drop:]
	}
	n := len(s.bit) - 1
	// Keep at least 7/8 of the slot space free (capped at 4x the keep
	// bound) so compactions stay rare: each one walks the whole slot
	// space, so at 1/8 occupancy the amortized cost is ~1.3 slot visits
	// per touch.
	for n < 2*len(live)+2 || (n < 4*s.keep && n < 8*len(live)) {
		n *= 2
	}
	s.resetBIT(n)
	s.pos.Reset()
	for i, k := range live {
		s.pos.Put(k, i)
		s.keys[i] = k
		s.add(i, 1)
	}
	s.next = len(live)
	s.live = len(live)
}
