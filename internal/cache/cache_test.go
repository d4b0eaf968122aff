package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"tako/internal/mem"
)

// tiny returns a 2-set, 4-way cache for focused tests.
func tiny(p Policy) *Cache {
	return New(Config{Name: "t", SizeBytes: 2 * 4 * 64, Ways: 4, Policy: p})
}

// addrFor returns the i-th distinct line address mapping to the given set
// of a 2-set cache.
func addrFor(set, i int) mem.Addr {
	return mem.Addr(uint64(set)*64 + uint64(i)*2*64)
}

// evicted is what a fill displaced: Insert's tag, state and evicted
// flag in one value.
type evicted struct {
	Tag   mem.Addr
	Valid bool
	LineState
}

func fill(c *Cache, a mem.Addr, opts FillOpts) evicted {
	tag, ls, ev, ok := c.Insert(a, nil, opts, VictimConstraint{})
	if !ok {
		panic("no victim")
	}
	return evicted{tag, ev, ls}
}

// TestLineStateSize pins LineState at 80 bytes: a field added or moved so
// that it pads out a word grows every cache slab. With the way's tag word
// beside it, a way costs 88 bytes.
func TestLineStateSize(t *testing.T) {
	if got := unsafe.Sizeof(LineState{}); got != 80 {
		t.Fatalf("LineState is %d bytes, want 80", got)
	}
}

func TestGeometry(t *testing.T) {
	c := New(Config{Name: "l2", SizeBytes: 128 * 1024, Ways: 8})
	if c.NumSets() != 256 {
		t.Fatalf("sets = %d, want 256", c.NumSets())
	}
	// Same line maps to same set; consecutive lines to consecutive sets.
	if c.SetIndex(0) != 0 || c.SetIndex(64) != 1 || c.SetIndex(63) != 0 {
		t.Fatal("set indexing wrong")
	}
	// IndexShift skips bank-interleave bits.
	cb := New(Config{Name: "l3", SizeBytes: 8 * 1024, Ways: 2, IndexShift: 4})
	if cb.SetIndex(0) != cb.SetIndex(64) {
		t.Fatal("IndexShift should make adjacent lines share a set index")
	}
	if cb.SetIndex(0) == cb.SetIndex(64*16) {
		t.Fatal("IndexShift skipped too many bits")
	}
}

func TestLookupMissHitAndData(t *testing.T) {
	c := tiny(NewLRU())
	a := addrFor(0, 0)
	if c.Lookup(a) != nil {
		t.Fatal("hit in empty cache")
	}
	var data mem.Line
	data.SetWord(0, 99)
	_, _, ev, ok := c.Insert(a, &data, FillOpts{}, VictimConstraint{})
	if !ok {
		t.Fatal("no victim in empty set")
	}
	if ev {
		t.Fatal("eviction from empty way")
	}
	l := c.Lookup(a + 8) // any addr within the line
	if l == nil || l.Data.Word(0) != 99 {
		t.Fatal("fill did not stick")
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c := tiny(NewLRU())
	for i := 0; i < 4; i++ {
		fill(c, addrFor(0, i), FillOpts{})
	}
	c.Touch(addrFor(0, 0)) // 0 is now MRU; 1 is LRU
	ev := fill(c, addrFor(0, 4), FillOpts{})
	if !ev.Valid || ev.Tag != addrFor(0, 1) {
		t.Fatalf("evicted %v, want %v", ev.Tag, addrFor(0, 1))
	}
}

func TestRRIPAgingAndPromotion(t *testing.T) {
	c := tiny(NewRRIP())
	for i := 0; i < 4; i++ {
		fill(c, addrFor(0, i), FillOpts{})
	}
	c.Touch(addrFor(0, 2)) // promoted to near
	// All start at long(2); victim search ages everyone to 3 except
	// the promoted line, then picks the first distant: way 0.
	ev := fill(c, addrFor(0, 4), FillOpts{})
	if !ev.Valid || ev.Tag != addrFor(0, 0) {
		t.Fatalf("evicted %v, want %v", ev.Tag, addrFor(0, 0))
	}
	if c.Lookup(addrFor(0, 2)) == nil {
		t.Fatal("promoted line was evicted")
	}
}

func TestTRRIPDemotesEngineFills(t *testing.T) {
	c := tiny(NewTRRIP())
	fill(c, addrFor(0, 0), FillOpts{})                 // core fill: RRPV 2
	fill(c, addrFor(0, 1), FillOpts{EngineFill: true}) // engine fill: RRPV 3
	fill(c, addrFor(0, 2), FillOpts{})
	fill(c, addrFor(0, 3), FillOpts{})
	ev := fill(c, addrFor(0, 4), FillOpts{})
	if ev.Tag != addrFor(0, 1) {
		t.Fatalf("trrîp evicted %v, want the engine-filled line", ev.Tag)
	}
	// Plain RRIP treats them equally: victim is the first aged way.
	c2 := tiny(NewRRIP())
	fill(c2, addrFor(0, 0), FillOpts{})
	fill(c2, addrFor(0, 1), FillOpts{EngineFill: true})
	fill(c2, addrFor(0, 2), FillOpts{})
	fill(c2, addrFor(0, 3), FillOpts{})
	ev = fill(c2, addrFor(0, 4), FillOpts{})
	if ev.Tag != addrFor(0, 0) {
		t.Fatalf("rrip evicted %v, want way 0", ev.Tag)
	}
}

func TestTRRIPHitRescuesEngineLine(t *testing.T) {
	c := tiny(NewTRRIP())
	fill(c, addrFor(0, 0), FillOpts{EngineFill: true})
	c.Touch(addrFor(0, 0)) // core demand hit: promoted, EngineFill cleared
	l := c.Lookup(addrFor(0, 0))
	if l.EngineFill || l.RRPV != 0 {
		t.Fatalf("engine line not rescued: %+v", l)
	}
}

// TestLockedLinesNotVictimized: a line whose lock is held (a Busy line)
// is never the victim, even when it is the policy's choice.
func TestLockedLinesNotVictimized(t *testing.T) {
	c := tiny(NewLRU())
	for i := 0; i < 4; i++ {
		fill(c, addrFor(0, i), FillOpts{})
	}
	// Way 0 is the LRU line but locked.
	locked := VictimConstraint{Busy: func(tag mem.Addr) bool { return tag == addrFor(0, 0) }}
	tag, _, _, ok := c.Insert(addrFor(0, 4), nil, FillOpts{}, locked)
	if !ok {
		t.Fatal("no victim beside the one locked line")
	}
	if tag == addrFor(0, 0) {
		t.Fatal("evicted a locked line")
	}
	if c.Lookup(addrFor(0, 0)) == nil {
		t.Fatal("locked line gone")
	}
}

func TestAllLockedNoVictim(t *testing.T) {
	c := tiny(NewLRU())
	for i := 0; i < 4; i++ {
		fill(c, addrFor(0, i), FillOpts{})
	}
	all := VictimConstraint{Busy: func(mem.Addr) bool { return true }}
	if _, _, _, ok := c.Insert(addrFor(0, 9), nil, FillOpts{}, all); ok {
		t.Fatal("found victim among all-locked set")
	}
	if c.Contains(addrFor(0, 9)) {
		t.Fatal("refused fill installed its line")
	}
}

func TestCallbackFreeConstraint(t *testing.T) {
	c := tiny(NewLRU())
	fill(c, addrFor(0, 0), FillOpts{Morph: true})
	fill(c, addrFor(0, 1), FillOpts{Morph: true})
	fill(c, addrFor(0, 2), FillOpts{Morph: true})
	fill(c, addrFor(0, 3), FillOpts{}) // the callback-free line
	got, _, _, ok := c.Insert(addrFor(0, 4), nil, FillOpts{}, VictimConstraint{CallbackFree: true})
	if !ok {
		t.Fatal("no callback-free victim found")
	}
	if got != addrFor(0, 3) {
		t.Fatalf("callback-free victim = %v, want %v", got, addrFor(0, 3))
	}
}

func TestMorphInsertInvariant(t *testing.T) {
	c := tiny(NewLRU())
	// Fill 3 Morph lines + 1 normal; inserting a 4th Morph line must
	// victimize a Morph line, not the last callback-free one.
	fill(c, addrFor(0, 0), FillOpts{Morph: true})
	fill(c, addrFor(0, 1), FillOpts{Morph: true})
	fill(c, addrFor(0, 2), FillOpts{Morph: true})
	fill(c, addrFor(0, 3), FillOpts{})
	ev := fill(c, addrFor(0, 4), FillOpts{Morph: true})
	if !ev.Valid || !ev.Morph {
		t.Fatalf("evicted %+v, want a Morph line", ev)
	}
	if err := c.CheckMorphInvariant(); err != nil {
		t.Fatal(err)
	}
	// A Morph insert under CallbackFree in that state must still evict
	// a Morph line: CallbackFree is advisory, the invariant is not.
	_, old, out, ok := c.Insert(addrFor(0, 5), nil, FillOpts{Morph: true}, VictimConstraint{CallbackFree: true})
	if !ok || !out || !old.Morph {
		t.Fatalf("Morph insert under CallbackFree evicted %+v (evicted %v, ok %v), want a Morph line", old, out, ok)
	}
	if err := c.CheckMorphInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertRelaxesOnlyAdvisoryConstraints: Insert relaxes Avoid and
// CallbackFree when no way qualifies under them, but never Busy.
func TestInsertRelaxesOnlyAdvisoryConstraints(t *testing.T) {
	all := func(mem.Addr) bool { return true }
	full := func(morph ...bool) *Cache {
		c := tiny(NewLRU())
		for i, m := range morph {
			fill(c, addrFor(0, i), FillOpts{Morph: m})
		}
		return c
	}

	// Avoid protects every way: the fill evicts the policy's pick.
	c := full(false, false, false, false)
	if tag, _, ev, ok := c.Insert(addrFor(0, 4), nil, FillOpts{}, VictimConstraint{Avoid: all}); !ok || !ev || tag != addrFor(0, 0) {
		t.Fatalf("fill with every way avoided evicted %v (evicted %v, ok %v), want the LRU line %v", tag, ev, ok, addrFor(0, 0))
	}

	// CallbackFree leaves only the last callback-free line, which a Morph
	// fill must keep: a Morph line goes.
	c = full(false, true, true, true)
	_, old, ev, ok := c.Insert(addrFor(0, 4), nil, FillOpts{Morph: true}, VictimConstraint{CallbackFree: true})
	if !ok || !ev || !old.Morph {
		t.Fatalf("Morph fill under CallbackFree evicted %+v (evicted %v, ok %v), want a Morph line", old, ev, ok)
	}
	if err := c.CheckMorphInvariant(); err != nil {
		t.Fatal(err)
	}

	// Every way busy: no fill, and the set is as it was.
	c = full(false, true, false, true)
	lines, tags := slices.Clone(c.set(0)), slices.Clone(c.setTags(0))
	if _, _, _, ok := c.Insert(addrFor(0, 4), nil, FillOpts{Morph: true},
		VictimConstraint{CallbackFree: true, Avoid: all, Busy: all}); ok {
		t.Fatal("fill into an all-busy set succeeded")
	}
	if !slices.Equal(lines, c.set(0)) || !slices.Equal(tags, c.setTags(0)) {
		t.Fatal("refused fill changed the set")
	}

	// The retry drops Avoid but keeps Busy: the LRU line is busy, so the
	// next-oldest goes.
	c = full(false, false, false, false)
	busy := func(tag mem.Addr) bool { return tag == addrFor(0, 0) }
	if tag, _, ev, ok := c.Insert(addrFor(0, 4), nil, FillOpts{}, VictimConstraint{Avoid: all, Busy: busy}); !ok || !ev || tag != addrFor(0, 1) {
		t.Fatalf("fill evicted %v (evicted %v, ok %v), want %v beside the busy LRU line", tag, ev, ok, addrFor(0, 1))
	}
	if !c.Contains(addrFor(0, 0)) {
		t.Fatal("busy line evicted")
	}
}

// TestMorphInsertEvictingMorphAllocs pins that a Morph fill which must
// evict a Morph line, so its set keeps its last callback-free line,
// chooses that victim without allocating.
func TestMorphInsertEvictingMorphAllocs(t *testing.T) {
	// The plain line is the oldest, so LRU first picks it on every fill;
	// it is the set's last callback-free line, so the oldest Morph line
	// must go instead.
	c := tiny(NewLRU())
	fill(c, addrFor(0, 0), FillOpts{})
	fill(c, addrFor(0, 1), FillOpts{Morph: true})
	fill(c, addrFor(0, 2), FillOpts{Morph: true})
	fill(c, addrFor(0, 3), FillOpts{Morph: true})
	constraint := VictimConstraint{Busy: func(mem.Addr) bool { return false }}
	next := 4
	allocs := testing.AllocsPerRun(100, func() {
		want := addrFor(0, next-3)
		tag, old, ev, ok := c.Insert(addrFor(0, next), nil, FillOpts{Morph: true}, constraint)
		if !ok || !ev || tag != want || !old.Morph {
			t.Fatalf("fill %d evicted %v (evicted %v, ok %v), want the oldest Morph line %v", next, tag, ev, ok, want)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("%v allocs per Morph-evicting victim choice, want 0", allocs)
	}
}

// Property: any random mix of Morph and plain fills preserves the per-set
// callback-free invariant.
func TestQuickMorphInvariantPreserved(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		c := New(Config{Name: "q", SizeBytes: 4 * 4 * 64, Ways: 4, Policy: NewTRRIP()})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)+8; i++ {
			a := mem.Addr(rng.Intn(256) * 64)
			if c.Contains(a) {
				continue // refills are handled above the array
			}
			opts := FillOpts{
				Morph:      rng.Intn(2) == 0,
				EngineFill: rng.Intn(4) == 0,
				Dirty:      rng.Intn(2) == 0,
			}
			if _, _, _, ok := c.Insert(a, nil, opts, VictimConstraint{}); !ok {
				return false
			}
			if err := c.CheckMorphInvariant(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractLine(t *testing.T) {
	c := tiny(NewLRU())
	fill(c, addrFor(0, 0), FillOpts{Dirty: true})
	ls, ok := c.ExtractLine(addrFor(0, 0) + 16)
	if !ok || !ls.Dirty {
		t.Fatalf("extract = %+v, %v", ls, ok)
	}
	if c.Contains(addrFor(0, 0)) {
		t.Fatal("extracted line still present")
	}
	if _, ok := c.ExtractLine(addrFor(0, 0)); ok {
		t.Fatal("double extract succeeded")
	}
}

func TestLinesInRegion(t *testing.T) {
	c := New(Config{Name: "w", SizeBytes: 16 * 4 * 64, Ways: 4})
	r := mem.Region{Name: "r", Base: 0x1000, Size: 0x200}
	fill(c, 0x1000, FillOpts{})
	fill(c, 0x1040, FillOpts{})
	fill(c, 0x3000, FillOpts{}) // outside
	got := c.LinesInRegion(r)
	if len(got) != 2 {
		t.Fatalf("lines in region = %v", got)
	}
}

// TestStatsOnEvict: a fill into a full set hands back the LRU line it
// evicted, with the dirty bit the caller needs to decide on a writeback.
func TestStatsOnEvict(t *testing.T) {
	c := tiny(NewLRU())
	for i := 0; i < 4; i++ {
		fill(c, addrFor(0, i), FillOpts{Dirty: i == 0, Morph: i == 1})
	}
	ev := fill(c, addrFor(0, 4), FillOpts{}) // evicts way 0 (dirty)
	if !ev.Valid || ev.Tag != addrFor(0, 0) || !ev.Dirty || ev.Morph {
		t.Fatalf("victim = %+v, want the dirty way-0 line", ev)
	}
	if c.Contains(addrFor(0, 0)) {
		t.Fatal("evicted line still cached")
	}
}

func TestWalkAndValidLines(t *testing.T) {
	c := tiny(NewLRU())
	fill(c, addrFor(0, 0), FillOpts{})
	fill(c, addrFor(1, 0), FillOpts{})
	if c.ValidLines() != 2 {
		t.Fatalf("valid = %d", c.ValidLines())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 3 * 64, Ways: 1})
}
