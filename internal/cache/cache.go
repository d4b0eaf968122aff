// Package cache models set-associative cache arrays: tags, data,
// replacement state and Morph registration bits. Timing, the protocol
// between levels and the line locks that keep a line in use from being
// victimized live in internal/hier; this package is the functional
// array plus replacement policy.
//
// A line enters an array through one call, Insert, which picks the
// victim, evicts it and installs the line. Its VictimConstraint is hard
// in Busy (the lines hier's locks name are never victims) and advisory
// in CallbackFree and Avoid, which Insert relaxes when no way qualifies.
//
// täkō-specific pieces (paper §5.2):
//   - one tag bit per line records whether a Morph is registered for the
//     line at this cache level;
//   - the trrîp replacement policy inserts engine-issued fills at distant
//     re-reference priority to avoid cache pollution from callbacks;
//   - victim selection prefers callback-free lines when asked, and Insert
//     maintains the invariant that every set keeps at least one line
//     that can be evicted without triggering a callback (deadlock
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

// LineState is the state of one cache line apart from its tag: data and
// metadata. Its 80 bytes are the four flags and RRPV in one word (8), LRU
// (8) and Data (64). The tag and the valid bit live in the array's tag
// words (see Cache), so a tag search reads 8 bytes a way, not a whole
// LineState.
type LineState struct {
	Dirty bool
	// Morph records that a Morph is registered for this line at this
	// cache level: its eviction must invoke onEviction/onWriteback.
	Morph bool
	// EngineFill records that the line was inserted by an engine
	// (callback) access, for trrîp's pollution-avoidance accounting.
	EngineFill bool
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
// computation into a single allocation). Beside it, tags holds one word
// per way, at the same index: the line's tag with validBit set, or 0
// for an invalid way. The words are the only home of a line's tag and
// valid bit, so a tag search compares one word a way, and a 16-way set's
// words fill two host cache lines. Two small per-set sidecars accelerate
// the hot scans without changing any outcome: valid[s] counts valid ways
// (a full set skips the find-an-invalid-way scan, which would find
// nothing), and mru[s] remembers the last way hit so the common
// re-reference probe is a single word compare.
type Cache struct {
	cfg      Config
	lines    []LineState // slab: numSets * ways entries
	tags     []uint64    // tag words, indexed like lines
	ways     int
	numSets  int
	setMask  uint64  // numSets - 1
	valid    []int16 // per-set count of valid ways
	mru      []int16 // per-set way of the last hit/fill
	lruClock uint64

	// Victim-scan scratch: allowedFn is built once and reads vcBase /
	// vcConstraint / vcMorphOnly, which pickVictim binds per call, so
	// passing the eligibility predicate through the Policy interface
	// never allocates a closure. Policies must not re-enter pickVictim
	// (none do — they are pure scans over the set).
	vcBase       int // slab index of the set's way 0
	vcConstraint VictimConstraint
	vcMorphOnly  bool
	allowedFn    func(int) bool
}

// validBit marks a valid way's tag word. A tag is line-aligned, so its
// low mem.LineShift bits are free.
const validBit = 1

// set returns the way array of set s as a slice of the slab.
func (c *Cache) set(s int) []LineState {
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// setTags returns the tag words of set s.
func (c *Cache) setTags(s int) []uint64 {
	return c.tags[s*c.ways : (s+1)*c.ways]
}

// find returns the way of set s that holds line la, or -1. Tags are
// unique within a set, so a hit on the MRU hint is the answer, and the
// scan runs only when the hint misses; a scan hit moves the hint.
func (c *Cache) find(s int, la mem.Addr) int {
	tags := c.setTags(s)
	want := uint64(la) | validBit
	if m := c.mru[s]; tags[m] == want {
		return int(m)
	}
	for i, w := range tags {
		if w == want {
			c.mru[s] = int16(i)
			return i
		}
	}
	return -1
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
	c := &Cache{cfg: cfg, ways: cfg.Ways, numSets: numSets, setMask: uint64(numSets - 1)}
	c.lines = make([]LineState, numSets*cfg.Ways)
	c.tags = make([]uint64, numSets*cfg.Ways)
	c.valid = make([]int16, numSets)
	c.mru = make([]int16, numSets)
	c.allowedFn = func(i int) bool {
		i += c.vcBase
		l := &c.lines[i]
		if c.vcMorphOnly && !l.Morph {
			return false
		}
		if c.vcConstraint.CallbackFree && l.Morph {
			return false
		}
		tag := mem.Addr(c.tags[i] &^ validBit)
		if c.vcConstraint.Busy != nil && c.vcConstraint.Busy(tag) {
			return false
		}
		if c.vcConstraint.Avoid != nil && c.vcConstraint.Avoid(tag) {
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

// SetIndex returns the set index for address a. The set count is a power
// of two, so the index is a mask of the line number, not a division.
func (c *Cache) SetIndex(a mem.Addr) int {
	return int((uint64(a) >> (mem.LineShift + c.cfg.IndexShift)) & c.setMask)
}

// Lookup returns the line holding a, or nil on miss. It does not update
// replacement state; callers use Touch on hits so that probes (directory
// lookups, flush walks) do not perturb the policy.
func (c *Cache) Lookup(a mem.Addr) *LineState {
	s := c.SetIndex(a)
	if w := c.find(s, a.Line()); w >= 0 {
		return &c.lines[s*c.ways+w]
	}
	return nil
}

// Contains reports whether a is cached.
func (c *Cache) Contains(a mem.Addr) bool { return c.Lookup(a) != nil }

// Touch records a demand hit on a's line for the replacement policy.
func (c *Cache) Touch(a mem.Addr) {
	s := c.SetIndex(a)
	i := c.find(s, a.Line())
	if i < 0 {
		return
	}
	set := c.set(s)
	c.lruClock++
	set[i].LRU = c.lruClock
	c.cfg.Policy.OnHit(set, i)
}

// VictimConstraint restricts Insert's victim. Busy is hard: Insert
// never evicts a line it names. CallbackFree and Avoid are advisory:
// Insert relaxes them when no way qualifies under them.
type VictimConstraint struct {
	// CallbackFree asks for a victim whose eviction triggers no
	// callback (no Morph bit). Used when callback resources are
	// saturated (§5.2 deadlock avoidance).
	CallbackFree bool
	// Avoid names lines software asked to protect — the onReplacement
	// extension (§4.5): Morphs may bias the eviction policy for their
	// lines.
	Avoid func(tag mem.Addr) bool
	// Busy excludes lines with an in-flight transaction the cache array
	// cannot see (a held home-line lock): victimizing a line mid
	// transaction lets its eviction snapshot race the transaction's
	// update.
	Busy func(tag mem.Addr) bool
}

// freeWay returns the first invalid way of set s, or -1 when the set is
// full. When the valid count says so, the scan would find nothing, so it
// is skipped.
func (c *Cache) freeWay(s int) int {
	if int(c.valid[s]) < c.ways {
		for i, w := range c.setTags(s) {
			if w == 0 {
				return i
			}
		}
	}
	return -1
}

// pickVictim asks the policy for a victim among set s's ways that
// constraint allows (and, with morphOnly, that hold a Morph); -1 when no
// way is allowed.
func (c *Cache) pickVictim(s int, constraint VictimConstraint, morphOnly bool) int {
	c.vcBase, c.vcConstraint, c.vcMorphOnly = s*c.ways, constraint, morphOnly
	way := c.cfg.Policy.Victim(c.set(s), c.allowedFn)
	// Unbind the scratch so pooled state never pins a caller's Avoid hook
	// or outlives the call.
	c.vcConstraint, c.vcMorphOnly = VictimConstraint{}, false
	return way
}

// FillOpts describes an incoming line.
type FillOpts struct {
	Dirty      bool
	Morph      bool
	Phantom    bool
	EngineFill bool
}

// evictWay invalidates way of set s and returns the tag and state it
// held; ok=false when the way was already invalid.
func (c *Cache) evictWay(s, way int) (tag mem.Addr, old LineState, ok bool) {
	i := s*c.ways + way
	w := c.tags[i]
	if w == 0 {
		return 0, LineState{}, false
	}
	old = c.lines[i]
	c.lines[i], c.tags[i] = LineState{}, 0
	c.valid[s]--
	return mem.Addr(w &^ validBit), old, true
}

// Insert installs a line for address a, which the cache must not hold,
// into a's set. It returns the tag and state of the line it evicted,
// with evicted=false when it filled an invalid way, and ok=false, with
// no line evicted or installed, when no way may be replaced.
//
// The victim is the set's first invalid way, else the policy's pick
// among the ways vc allows. A Morph fill keeps the set's last
// callback-free line (§5.2): when the pick is that line, a Morph line is
// victimized instead, and Avoid is dropped when it protects every Morph
// line. When nothing qualifies, Insert retries once under vc.Busy alone.
func (c *Cache) Insert(a mem.Addr, data *mem.Line, opts FillOpts, vc VictimConstraint) (tag mem.Addr, old LineState, evicted, ok bool) {
	s := c.SetIndex(a)
	way := c.victim(s, opts, vc)
	if way < 0 {
		way = c.victim(s, opts, VictimConstraint{Busy: vc.Busy})
	}
	if way < 0 {
		return 0, LineState{}, false, false
	}
	la := a.Line()
	tag, old, evicted = c.evictWay(s, way)
	if w := c.find(s, la); w >= 0 {
		panic(fmt.Sprintf("cache %s: duplicate fill of line %v (already in way %d)",
			c.cfg.Name, la, w))
	}
	c.install(s, way, la, data, opts)
	return tag, old, evicted, true
}

// victim picks the way of set s that a fill with opts replaces under
// vc, or -1 when none qualifies.
func (c *Cache) victim(s int, opts FillOpts, vc VictimConstraint) int {
	way := c.freeWay(s)
	if way < 0 {
		if way = c.pickVictim(s, vc, false); way < 0 {
			return -1
		}
	}
	if !opts.Morph || c.keepsCallbackFree(s, way) {
		return way
	}
	// A Morph line must go instead, and its eviction runs a callback.
	if vc.CallbackFree {
		return -1
	}
	if way = c.pickVictim(s, vc, true); way < 0 && vc.Avoid != nil {
		vc.Avoid = nil
		return c.victim(s, opts, vc)
	}
	return way
}

// Seed installs a clean line into an invalid way of a's set: warm-state
// pre-seeding for analytical fast-forward (hier/seed.go). It returns
// false — and installs nothing — when the line is already present or the
// set has no invalid way (seeding never evicts). Recency follows the
// shared fill clock, so callers seed in least-recent-first order; the
// replacement policy's insertion hook runs so policy metadata stays
// legal.
func (c *Cache) Seed(a mem.Addr, data *mem.Line) bool {
	s := c.SetIndex(a)
	la := a.Line()
	way := c.freeWay(s)
	if way < 0 || c.find(s, la) >= 0 {
		return false
	}
	c.install(s, way, la, data, FillOpts{})
	return true
}

// install puts line la into way of set s, which is invalid: its flags
// from opts, its data (zeros when data is nil), the next recency stamp
// and its tag word. The way becomes the MRU hint, and the policy's
// insertion hook runs.
func (c *Cache) install(s, way int, la mem.Addr, data *mem.Line, opts FillOpts) {
	set := c.set(s)
	c.lruClock++
	set[way] = LineState{
		Dirty:      opts.Dirty,
		Morph:      opts.Morph,
		Phantom:    opts.Phantom,
		EngineFill: opts.EngineFill,
		LRU:        c.lruClock,
	}
	if data != nil {
		set[way].Data = *data
	}
	c.tags[s*c.ways+way] = uint64(la) | validBit
	c.valid[s]++
	c.mru[s] = int16(way)
	c.cfg.Policy.OnInsert(set, way, opts.EngineFill)
}

// keepsCallbackFree reports whether set s keeps a callback-free line
// (an invalid way counts) when a Morph line replaces way.
func (c *Cache) keepsCallbackFree(s, way int) bool {
	set := c.set(s)
	for i := range set {
		if i != way && !set[i].Morph { // an invalid way carries no flag
			return true
		}
	}
	return false
}

// ExtractLine invalidates a's line and returns its state (for flushes and
// back-invalidations). ok=false if the line is not present.
func (c *Cache) ExtractLine(a mem.Addr) (LineState, bool) {
	s := c.SetIndex(a)
	w := c.find(s, a.Line())
	if w < 0 {
		return LineState{}, false
	}
	_, ls, _ := c.evictWay(s, w)
	return ls, true
}

// Walk calls fn for every valid line with its tag; fn may mutate the line
// state but must not invalidate it (use ExtractLine afterwards).
func (c *Cache) Walk(fn func(tag mem.Addr, l *LineState)) {
	// Slab order is (set, way) order, matching the old nested loops.
	for i, w := range c.tags {
		if w != 0 {
			fn(mem.Addr(w&^validBit), &c.lines[i])
		}
	}
}

// CheckReplacementState verifies the structural sanity of every set: each
// valid tag word holds a line-aligned tag that indexes to its own set, no
// two ways share a tag, RRPV is within the 2-bit range, the valid-count
// sidecar matches the words, and an invalid way has a zero word and no
// flag in its slab entry. Used by the hierarchy-wide invariant checker.
func (c *Cache) CheckReplacementState() error {
	for s := 0; s < c.numSets; s++ {
		set, tags := c.set(s), c.setTags(s)
		valid := 0
		for w, word := range tags {
			l := &set[w]
			if word&validBit == 0 {
				if word != 0 {
					return fmt.Errorf("cache %s: set %d way %d invalid but its tag word is %#x", c.cfg.Name, s, w, word)
				}
				if l.Dirty || l.Morph || l.EngineFill || l.Phantom {
					return fmt.Errorf("cache %s: set %d way %d invalid but carries state bits", c.cfg.Name, s, w)
				}
				continue
			}
			valid++
			tag := mem.Addr(word &^ validBit)
			if tag != tag.Line() {
				return fmt.Errorf("cache %s: set %d way %d tag %v not line-aligned", c.cfg.Name, s, w, tag)
			}
			if c.SetIndex(tag) != s {
				return fmt.Errorf("cache %s: line %v stored in set %d, indexes to %d",
					c.cfg.Name, tag, s, c.SetIndex(tag))
			}
			if l.RRPV > rrpvMax {
				return fmt.Errorf("cache %s: line %v RRPV %d beyond max %d", c.cfg.Name, tag, l.RRPV, rrpvMax)
			}
			for w2 := w + 1; w2 < len(tags); w2++ {
				if tags[w2] == word {
					return fmt.Errorf("cache %s: duplicate tag %v in set %d (ways %d, %d)",
						c.cfg.Name, tag, s, w, w2)
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
	c.Walk(func(tag mem.Addr, _ *LineState) {
		if r.Contains(tag) {
			out = append(out, tag)
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
			if !set[w].Morph { // an invalid way carries no flag
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
	for _, w := range c.tags {
		if w != 0 {
			n++
		}
	}
	return n
}
