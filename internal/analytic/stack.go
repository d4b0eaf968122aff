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

import (
	"fmt"
	"math"
	"slices"

	"tako/internal/flat"
)

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
//
// A stack costs 4 bytes per slot (the Fenwick tree) plus its key table:
// nothing maps a slot back to its key, since only compaction needs that
// and it reads it from the table.
type Stack struct {
	bit  []uint32          // Fenwick tree: bit counts of live slots
	pos  flat.Table[int32] // key -> slot
	last uint64            // the most recently touched key, when next > 0
	next int               // next free slot (logical length)
	live int               // keys currently tracked
	keep int               // survivors per compaction (drop-tail bound)

	// Cold counts first touches (including re-touches of dropped keys);
	// Dropped counts keys discarded by the bound.
	Cold    uint64
	Dropped uint64

	// compact scratch, reused across compactions.
	scratch []uint64
}

// maxKeep is the largest keep bound whose slots fit an int32: compaction
// never grows the slot space past 8x the bound.
const maxKeep = math.MaxInt32 / 8

// NewStack returns a stack-distance tracker keeping at most keepMax keys
// (≤ 0 selects a default of 1<<21, ≈128 MB of line-granular working set).
// It panics if keepMax exceeds maxKeep.
func NewStack(keepMax int) *Stack {
	if keepMax <= 0 {
		keepMax = 1 << 21
	}
	if keepMax > maxKeep {
		panic(fmt.Sprintf("analytic: NewStack(%d): a keep bound above %d overflows the stack's int32 slots", keepMax, maxKeep))
	}
	s := &Stack{keep: keepMax}
	s.resetBIT(1 << 10)
	return s
}

// resetBIT empties the Fenwick tree, sized for n slots; the array is
// reused when the size is unchanged, so steady-state compactions
// allocate nothing.
func (s *Stack) resetBIT(n int) {
	if len(s.bit) == n+1 {
		clear(s.bit)
	} else {
		s.bit = make([]uint32, n+1)
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
	if s.next > 0 && s.last == key {
		// Immediate re-touch of the MRU key: distance 0, recency order
		// unchanged — skip the table and Fenwick work entirely.
		return 0, false
	}
	if s.next+1 >= len(s.bit) {
		s.compact()
	}
	ref, ok := s.pos.GetOrPut(key, int32(s.next))
	if ok {
		// Keys more recent than this one = live keys in slots above it.
		slot := int(*ref)
		*ref = int32(s.next)
		dist = s.live - s.sum(slot)
		s.add(slot, -1)
	} else {
		cold = true
		s.Cold++
		s.live++
	}
	s.last = key
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
// the keep bound. The key table holds each live key's newest slot, so
// placing its keys by slot enumerates them in recency order. The tree is
// rebuilt afterwards, so its array, one entry per slot, holds that
// placement meanwhile (1 + the key's index in scratch; 0 for a free
// slot): one linear walk then visits the keys in order, and no slot→key
// mirror is kept between compactions. The last key touched has the
// highest slot and always survives, so last stays valid.
func (s *Stack) compact() {
	keys := slices.Grow(s.scratch[:0], s.pos.Len())
	bySlot := s.bit[:s.next]
	clear(bySlot)
	s.pos.Range(func(k uint64, slot *int32) bool {
		keys = append(keys, k)
		bySlot[*slot] = uint32(len(keys))
		return true
	})
	s.scratch = keys
	drop := max(len(keys)-s.keep, 0)
	s.Dropped += uint64(drop)
	s.pos.Reset()
	rank := -drop
	for _, k := range bySlot {
		if k == 0 {
			continue
		}
		if rank >= 0 {
			s.pos.Put(keys[k-1], int32(rank))
		}
		rank++
	}
	live := len(keys) - drop
	n := len(s.bit) - 1
	// Keep at least 7/8 of the slot space free (capped at 4x the keep
	// bound) so compactions stay rare: each one walks the whole slot
	// space, so at 1/8 occupancy the amortized cost is ~1.3 slot visits
	// per touch.
	for n < 2*live+2 || (n < 4*s.keep && n < 8*live) {
		n *= 2
	}
	s.resetBIT(n)
	for i := 0; i < live; i++ {
		s.add(i, 1)
	}
	s.next = live
	s.live = live
}
