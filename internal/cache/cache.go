// Package cache models set-associative cache arrays: tags, data,
// replacement state, Morph registration bits, and per-line callback
// locks. Timing and the protocol between levels live in internal/hier;
// this package is the functional array plus replacement policy.
//
// täkō-specific pieces (paper §5.2):
//   - one tag bit per line records whether a Morph is registered for the
//     line at this cache level;
//   - the trrîp replacement policy inserts engine-issued fills at distant
//     re-reference priority to avoid cache pollution from callbacks;
//   - victim selection can be restricted to callback-free lines, and
//     inserts maintain the invariant that every set keeps at least one
//     line that can be evicted without triggering a callback (deadlock
//     avoidance).
package cache

import (
	"fmt"

	"tako/internal/mem"
)

// Config describes one cache array.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	// IndexShift skips address bits above the line offset before set
	// indexing; shared-cache banks use it to index within a bank after
	// line-interleaving across tiles.
	IndexShift uint
	Policy     Policy
}

// LineState is the full state of one cache line (tag + data + metadata).
// Its 88 bytes are Tag (8), the six flags and RRPV in one word (8), LRU
// (8) and Data (64). Every cache slab holds one per way, so Valid sits
// with the other flags rather than padding out a word of its own.
type LineState struct {
	Tag   mem.Addr // line-aligned address
	Valid bool
	Dirty bool
	// Morph records that a Morph is registered for this line at this
	// cache level: its eviction must invoke onEviction/onWriteback.
	Morph bool
	// EngineFill records that the line was inserted by an engine
	// (callback) access, for trrîp's pollution-avoidance accounting.
	EngineFill bool
	// Locked marks a line currently owned by a running callback; it
	// may not be selected as a victim.
	Locked bool
	// Phantom marks a line from a phantom range (never written back to
	// the next level; discarded after its eviction callback).
	Phantom bool

	RRPV uint8  // RRIP re-reference prediction value
	LRU  uint64 // LRU timestamp

	Data mem.Line
}

// Cache is one set-associative array.
//
// Line state lives in one contiguous slab indexed by set*ways+way (no
// per-set slice headers or pointer indirection: a lookup is one index
// computation into a single allocation). Two small per-set sidecars
// accelerate the hot scans without changing any outcome: valid[s] counts
// valid ways (a full set skips the find-an-invalid-way scan, which would
// find nothing), and mru[s] remembers the last way hit so the common
// re-reference probe is a single tag compare.
type Cache struct {
	cfg      Config
	lines    []LineState // slab: numSets * ways entries
	ways     int
	numSets  int
	valid    []int16 // per-set count of valid ways
	mru      []int16 // per-set way of the last hit/fill
	lruClock uint64

	// Victim-scan scratch: allowedFn is built once and reads vcSet /
	// vcConstraint / vcMorphOnly, which pickVictim binds per call, so
	// passing the eligibility predicate through the Policy interface
	// never allocates a closure. Policies must not re-enter pickVictim
	// (none do — they are pure scans over the set).
	vcSet        []LineState
	vcConstraint VictimConstraint
	vcMorphOnly  bool
	allowedFn    func(int) bool
}

// set returns the way array of set s as a slice of the slab.
func (c *Cache) set(s int) []LineState {
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// New builds a cache array from cfg. Size must be divisible by
// Ways*LineSize and the set count must be a power of two.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: bad geometry")
	}
	lines := cfg.SizeBytes / mem.LineSize
	if lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways))
	}
	numSets := lines / cfg.Ways
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets is not a power of two", cfg.Name, numSets))
	}
	if cfg.Policy == nil {
		cfg.Policy = NewTRRIP()
	}
	c := &Cache{cfg: cfg, ways: cfg.Ways, numSets: numSets}
	c.lines = make([]LineState, numSets*cfg.Ways)
	c.valid = make([]int16, numSets)
	c.mru = make([]int16, numSets)
	c.allowedFn = func(i int) bool {
		l := &c.vcSet[i]
		if l.Locked || c.vcMorphOnly && !l.Morph {
			return false
		}
		if c.vcConstraint.CallbackFree && l.Morph {
			return false
		}
		if c.vcConstraint.Busy != nil && c.vcConstraint.Busy(l.Tag) {
			return false
		}
		if c.vcConstraint.Avoid != nil && c.vcConstraint.Avoid(l.Tag) {
			return false
		}
		return true
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// SetIndex returns the set index for address a.
func (c *Cache) SetIndex(a mem.Addr) int {
	return int((uint64(a) >> (mem.LineShift + c.cfg.IndexShift)) % uint64(c.numSets))
}

// Lookup returns the line holding a, or nil on miss. It does not update
// replacement state; callers use Touch on hits so that probes (directory
// lookups, flush walks) do not perturb the policy.
func (c *Cache) Lookup(a mem.Addr) *LineState {
	idx := c.SetIndex(a)
	set := c.set(idx)
	la := a.Line()
	// MRU fast path: tags are unique per set, so a hint hit is the
	// unique answer and a full scan is equivalent when it misses.
	if m := c.mru[idx]; set[m].Valid && set[m].Tag == la {
		return &set[m]
	}
	for i := range set {
		if set[i].Valid && set[i].Tag == la {
			c.mru[idx] = int16(i)
			return &set[i]
		}
	}
	return nil
}

// Contains reports whether a is cached.
func (c *Cache) Contains(a mem.Addr) bool { return c.Lookup(a) != nil }

// Touch records a demand hit on a's line for the replacement policy.
func (c *Cache) Touch(a mem.Addr) {
	idx := c.SetIndex(a)
	set := c.set(idx)
	la := a.Line()
	i := int(c.mru[idx])
	if !set[i].Valid || set[i].Tag != la {
		i = -1
		for w := range set {
			if set[w].Valid && set[w].Tag == la {
				i = w
				break
			}
		}
		if i < 0 {
			return
		}
		c.mru[idx] = int16(i)
	}
	c.lruClock++
	set[i].LRU = c.lruClock
	c.cfg.Policy.OnHit(set, i)
}

// VictimConstraint restricts victim selection.
type VictimConstraint struct {
	// CallbackFree requires a victim whose eviction triggers no
	// callback (no Morph bit). Used when callback resources are
	// saturated (§5.2 deadlock avoidance).
	CallbackFree bool
	// Avoid excludes lines software asked to protect — the
	// onReplacement extension (§4.5): Morphs may bias the eviction
	// policy for their lines. Callers fall back to unconstrained
	// selection when every candidate is avoided.
	Avoid func(tag mem.Addr) bool
	// Busy excludes lines with an in-flight transaction the cache array
	// cannot see (a held home-line lock). Unlike Avoid it is a hard
	// correctness constraint, never relaxed: victimizing a line mid
	// transaction lets its eviction snapshot race the transaction's
	// update.
	Busy func(tag mem.Addr) bool
}

// ChooseVictim picks a victim way in a's set for an incoming fill.
// Invalid ways are preferred. It returns ok=false if every candidate is
// excluded (all locked, or no callback-free line under the constraint —
// the insert invariant makes the latter impossible for CallbackFree).
func (c *Cache) ChooseVictim(a mem.Addr, constraint VictimConstraint) (way int, ok bool) {
	idx := c.SetIndex(a)
	set := c.set(idx)
	// The invalid-way scan returns the first invalid way; when the valid
	// count says the set is full it would find nothing, so skip it.
	if int(c.valid[idx]) < c.ways {
		for i := range set {
			if !set[i].Valid {
				return i, true
			}
		}
	}
	return c.pickVictim(set, constraint, false)
}

// pickVictim asks the policy for a victim among set's ways that
// constraint allows (and, with morphOnly, that hold a Morph); ok=false
// when no way is allowed.
func (c *Cache) pickVictim(set []LineState, constraint VictimConstraint, morphOnly bool) (way int, ok bool) {
	c.vcSet, c.vcConstraint, c.vcMorphOnly = set, constraint, morphOnly
	way = -1
	for i := range set {
		if c.allowedFn(i) {
			way, ok = c.cfg.Policy.Victim(set, c.allowedFn), true
			break
		}
	}
	// Unbind the scratch so pooled state never pins a caller's Avoid hook
	// or outlives the call.
	c.vcSet, c.vcConstraint, c.vcMorphOnly = nil, VictimConstraint{}, false
	return way, ok
}

// FillOpts describes an incoming line.
type FillOpts struct {
	Dirty      bool
	Morph      bool
	Phantom    bool
	EngineFill bool
	Locked     bool
}

// EvictWay removes the line in set idx/way and returns its prior state.
func (c *Cache) evictWay(setIdx, way int) LineState {
	set := c.set(setIdx)
	old := set[way]
	set[way] = LineState{}
	if old.Valid {
		c.valid[setIdx]--
	}
	return old
}

// FillAt installs a line for address a into the given way (previously
// chosen by ChooseVictim and already drained by the caller), returning
// the evicted line state (Valid=false if the way was empty).
//
// FillAt maintains the deadlock-avoidance invariant: if installing a
// Morph line would leave no callback-free line in the set, it refuses
// and the caller must evict a Morph line first (see Insert, which handles
// this automatically).
func (c *Cache) FillAt(a mem.Addr, way int, data *mem.Line, opts FillOpts) LineState {
	setIdx := c.SetIndex(a)
	evicted := c.evictWay(setIdx, way)
	set := c.set(setIdx)
	for w := range set {
		if set[w].Valid && set[w].Tag == a.Line() {
			panic(fmt.Sprintf("cache %s: duplicate fill of line %v (already in way %d)",
				c.cfg.Name, a.Line(), w))
		}
	}
	c.lruClock++
	set[way] = LineState{
		Valid:      true,
		Tag:        a.Line(),
		Dirty:      opts.Dirty,
		Morph:      opts.Morph,
		Phantom:    opts.Phantom,
		EngineFill: opts.EngineFill,
		Locked:     opts.Locked,
		LRU:        c.lruClock,
	}
	if data != nil {
		set[way].Data = *data
	}
	c.valid[setIdx]++
	c.mru[setIdx] = int16(way)
	c.cfg.Policy.OnInsert(set, way, opts.EngineFill)
	return evicted
}

// Seed installs a clean line into an invalid way of a's set: warm-state
// pre-seeding for analytical fast-forward (hier/seed.go). It returns
// false — and installs nothing — when the line is already present or the
// set has no invalid way (seeding never evicts). Recency follows the
// shared fill clock, so callers seed in least-recent-first order; the
// replacement policy's insertion hook runs so policy metadata stays
// legal.
func (c *Cache) Seed(a mem.Addr, data *mem.Line) bool {
	setIdx := c.SetIndex(a)
	set := c.set(setIdx)
	if int(c.valid[setIdx]) >= c.ways {
		return false
	}
	way := -1
	for w := range set {
		if set[w].Valid {
			if set[w].Tag == a.Line() {
				return false
			}
			continue
		}
		if way < 0 {
			way = w
		}
	}
	c.lruClock++
	set[way] = LineState{Valid: true, Tag: a.Line(), LRU: c.lruClock}
	if data != nil {
		set[way].Data = *data
	}
	c.valid[setIdx]++
	c.mru[setIdx] = int16(way)
	c.cfg.Policy.OnInsert(set, way, false)
	return true
}

// CanInsertMorph reports whether inserting a Morph line into a's set,
// evicting victimWay, preserves the per-set invariant of ≥1 callback-free
// line (counting invalid lines as callback-free).
func (c *Cache) CanInsertMorph(a mem.Addr, victimWay int) bool {
	set := c.set(c.SetIndex(a))
	for i := range set {
		if i == victimWay {
			continue // being replaced by the Morph line
		}
		if !set[i].Valid || !set[i].Morph {
			return true
		}
	}
	return false
}

// ChooseVictimForInsert picks a victim for a fill with the given options,
// honoring both the caller's constraint and the Morph-insert invariant:
// when the new line carries a Morph and only one callback-free line
// remains, a Morph line is victimized instead so the set always retains
// an evictable, callback-free line (§5.2).
func (c *Cache) ChooseVictimForInsert(a mem.Addr, opts FillOpts, constraint VictimConstraint) (way int, ok bool) {
	way, ok = c.ChooseVictim(a, constraint)
	if !ok {
		return -1, false
	}
	if opts.Morph && !c.CanInsertMorph(a, way) {
		// Must evict a Morph line instead. This victim triggers a
		// callback, so it is incompatible with CallbackFree.
		if constraint.CallbackFree {
			return -1, false
		}
		way, ok = c.pickVictim(c.set(c.SetIndex(a)), constraint, true)
		if !ok && constraint.Avoid != nil {
			// All Morph candidates are protected: the hint is
			// advisory, so retry without it.
			relaxed := constraint
			relaxed.Avoid = nil
			return c.ChooseVictimForInsert(a, opts, relaxed)
		}
		return way, ok
	}
	return way, ok
}

// ExtractLine invalidates a's line and returns its state (for flushes and
// back-invalidations). ok=false if the line is not present.
func (c *Cache) ExtractLine(a mem.Addr) (LineState, bool) {
	setIdx := c.SetIndex(a)
	set := c.set(setIdx)
	la := a.Line()
	for i := range set {
		if set[i].Valid && set[i].Tag == la {
			return c.evictWay(setIdx, i), true
		}
	}
	return LineState{}, false
}

// Walk calls fn for every valid line; fn may mutate the line state but
// must not invalidate it (use ExtractLine afterwards).
func (c *Cache) Walk(fn func(*LineState)) {
	// Slab order is (set, way) order, matching the old nested loops.
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(&c.lines[i])
		}
	}
}

// CheckReplacementState verifies the structural sanity of every set: no
// duplicate tags, line-aligned tags indexing to their own set, RRPV
// within the 2-bit range, and invalid lines carrying no stale metadata
// bits. Used by the hierarchy-wide invariant checker.
func (c *Cache) CheckReplacementState() error {
	for s := 0; s < c.numSets; s++ {
		set := c.set(s)
		valid := 0
		for w := range set {
			l := &set[w]
			if !l.Valid {
				if l.Dirty || l.Morph || l.Locked || l.Phantom {
					return fmt.Errorf("cache %s: set %d way %d invalid but carries state bits", c.cfg.Name, s, w)
				}
				continue
			}
			valid++
			if l.Tag != l.Tag.Line() {
				return fmt.Errorf("cache %s: set %d way %d tag %v not line-aligned", c.cfg.Name, s, w, l.Tag)
			}
			if c.SetIndex(l.Tag) != s {
				return fmt.Errorf("cache %s: line %v stored in set %d, indexes to %d",
					c.cfg.Name, l.Tag, s, c.SetIndex(l.Tag))
			}
			if l.RRPV > rrpvMax {
				return fmt.Errorf("cache %s: line %v RRPV %d beyond max %d", c.cfg.Name, l.Tag, l.RRPV, rrpvMax)
			}
			for w2 := w + 1; w2 < len(set); w2++ {
				if set[w2].Valid && set[w2].Tag == l.Tag {
					return fmt.Errorf("cache %s: duplicate tag %v in set %d (ways %d, %d)",
						c.cfg.Name, l.Tag, s, w, w2)
				}
			}
		}
		if valid != int(c.valid[s]) {
			return fmt.Errorf("cache %s: set %d valid-count sidecar says %d, actual %d",
				c.cfg.Name, s, c.valid[s], valid)
		}
	}
	return nil
}

// LinesInRegion returns the addresses of cached lines within r, in
// deterministic (set, way) order. Used by flushData tag walks (§4.4).
func (c *Cache) LinesInRegion(r mem.Region) []mem.Addr {
	var out []mem.Addr
	c.Walk(func(l *LineState) {
		if r.Contains(l.Tag) {
			out = append(out, l.Tag)
		}
	})
	return out
}

// CheckMorphInvariant verifies every set retains at least one
// callback-free (invalid or Morph-less) line. Returns an error naming the
// first violating set. Used by property tests and the deadlock study.
func (c *Cache) CheckMorphInvariant() error {
	for s := 0; s < c.numSets; s++ {
		set := c.set(s)
		free := false
		for w := range set {
			l := &set[w]
			if !l.Valid || !l.Morph {
				free = true
				break
			}
		}
		if !free {
			return fmt.Errorf("cache %s: set %d has no callback-free line", c.cfg.Name, s)
		}
	}
	return nil
}

// ValidLines returns the number of valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	c.Walk(func(*LineState) { n++ })
	return n
}
