package analytic

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"tako/internal/mem"
)

// bruteLRU is the reference for the collector's content filters: a
// set-associative LRU cache written for clarity, not speed. Each set
// holds its resident keys with their last-use tick, unordered; a miss in
// a full set evicts the key with the oldest tick.
type bruteLRU struct {
	ways int
	tick int
	sets [][]bruteLine
}

type bruteLine struct {
	key  uint64
	last int
}

func newBruteLRU(g Geom) *bruteLRU {
	return &bruteLRU{ways: g.Ways, sets: make([][]bruteLine, g.Sets)}
}

func (b *bruteLRU) set(key uint64) *[]bruteLine { return &b.sets[key%uint64(len(b.sets))] }

func (b *bruteLRU) access(key uint64) (hit bool, victim uint64, evicted bool) {
	b.tick++
	set := b.set(key)
	for i := range *set {
		if (*set)[i].key == key {
			(*set)[i].last = b.tick
			return true, 0, false
		}
	}
	if len(*set) < b.ways {
		*set = append(*set, bruteLine{key, b.tick})
		return false, 0, false
	}
	oldest := 0
	for i := range *set {
		if (*set)[i].last < (*set)[oldest].last {
			oldest = i
		}
	}
	victim = (*set)[oldest].key
	(*set)[oldest] = bruteLine{key, b.tick}
	return false, victim, true
}

func (b *bruteLRU) invalidate(key uint64) {
	set := b.set(key)
	for i := range *set {
		if (*set)[i].key == key {
			*set = append((*set)[:i], (*set)[i+1:]...)
			return
		}
	}
}

// content lists the resident keys set-major, most recent first in each
// set.
func (b *bruteLRU) content() []uint64 {
	var keys []uint64
	for _, set := range b.sets {
		lines := slices.Clone(set)
		sort.Slice(lines, func(i, j int) bool { return lines[i].last > lines[j].last })
		for _, l := range lines {
			keys = append(keys, l.key)
		}
	}
	return keys
}

// collectorCase is one collector configuration under test.
type collectorCase struct {
	tiles      int
	pageBits   uint
	l1, l2     Geom
	tlbEntries int
	keep       int
	mruEvery   int // accesses between MRU-list checks
}

type access struct {
	tile int
	addr mem.Addr
}

// checkCollector feeds trace to a collector built for cc and to brute
// references — a two-level inclusive set-associative LRU per tile with
// L2 -> L1 back-invalidation, a page-granular BruteStack per tile, and
// BruteStacks over the merged private-miss and unfiltered streams — and
// fails on the first divergence in what the collector reports.
func checkCollector(t *testing.T, cc collectorCase, trace []access) {
	t.Helper()
	c := newCollector(cc.tiles, cc.pageBits, cc.l1, cc.l2, cc.tlbEntries, cc.keep)
	l1 := make([]*bruteLRU, cc.tiles)
	l2 := make([]*bruteLRU, cc.tiles)
	pages := make([]*BruteStack, cc.tiles)
	for i := range l1 {
		l1[i], l2[i], pages[i] = newBruteLRU(cc.l1), newBruteLRU(cc.l2), &BruteStack{}
	}
	l3, global := &BruteStack{}, &BruteStack{}

	checkMRU := func(i int) {
		t.Helper()
		for tile := 0; tile < cc.tiles; tile++ {
			f1, f2 := c.FilterMRU(tile)
			if b1, b2 := l1[tile].content(), l2[tile].content(); !slices.Equal(f1, b1) || !slices.Equal(f2, b2) {
				t.Fatalf("after access %d, tile %d: FilterMRU (%v, %v) != brute (%v, %v)", i, tile, f1, f2, b1, b2)
			}
			if got, want := c.PageMRU(tile), pages[tile].MRU(cc.tlbEntries); !slices.Equal(got, want) {
				t.Fatalf("after access %d, tile %d: PageMRU %v != brute %v", i, tile, got, want)
			}
		}
		for _, n := range []int{1, cc.keep / 2, cc.keep} {
			if got, want := c.GlobalMRU(n), global.MRU(n); !slices.Equal(got, want) {
				t.Fatalf("after access %d: GlobalMRU(%d) %v != brute %v", i, n, got, want)
			}
		}
	}

	for i, a := range trace {
		s := c.Touch(a.tile, a.addr)
		la := uint64(a.addr >> mem.LineShift)
		global.Touch(la)
		if n := c.global.last.Len(); n > 2*cc.keep {
			t.Fatalf("access %d: recency record holds %d keys, bound 2*%d", i, n, cc.keep)
		}

		pd, pc := pages[a.tile].Touch(uint64(a.addr) >> cc.pageBits)
		if want := !pc && pd < cc.tlbEntries; s.TLBHit != want {
			t.Fatalf("access %d: TLBHit %v, brute page distance (%d, cold %v) with %d entries", i, s.TLBHit, pd, pc, cc.tlbEntries)
		}

		hit1, _, _ := l1[a.tile].access(la)
		reach3 := false
		if !hit1 {
			hit2, victim, evicted := l2[a.tile].access(la)
			reach3 = !hit2
			if evicted {
				l1[a.tile].invalidate(victim)
			}
		}
		if s.ReachL2 != !hit1 || s.ReachL3 != reach3 {
			t.Fatalf("access %d: reach (L2 %v, L3 %v) != brute (%v, %v)", i, s.ReachL2, s.ReachL3, !hit1, reach3)
		}
		if !reach3 {
			if s.L3Dist != 0 || s.L3Cold {
				t.Fatalf("access %d: L3 sample (%d, %v) on an access that did not reach L3", i, s.L3Dist, s.L3Cold)
			}
		} else if d, cold := l3.Touch(la); !s.L3Cold && (cold || s.L3Dist != d) {
			t.Fatalf("access %d: L3 distance %d != brute (%d, cold %v)", i, s.L3Dist, d, cold)
		} else if s.L3Cold && !cold && d < cc.keep {
			t.Fatalf("access %d: L3 cold, but brute distance %d < keep %d", i, d, cc.keep)
		}

		if i%cc.mruEvery == 0 {
			checkMRU(i)
		}
	}
	checkMRU(len(trace))
}

// TestCollectorMatchesBrute pins everything the collector reports —
// reach of each private level, shared-level stack distances, dTLB hits,
// and the filter, page and global MRU lists — against brute references
// on a multi-tile interleaved trace that mixes real regions with a
// phantom range.
func TestCollectorMatchesBrute(t *testing.T) {
	const tiles = 4
	space := mem.NewSpace()
	regions := []mem.Region{
		space.Alloc("ranks", 1<<16),
		space.Alloc("edges", 1<<17),
		space.AllocPhantom("ubbuf", 1<<16),
	}
	rng := rand.New(rand.NewSource(23))
	trace := make([]access, 40000)
	for i := range trace {
		r := regions[rng.Intn(len(regions))]
		trace[i] = access{rng.Intn(tiles), r.At(uint64(rng.Intn(int(r.Size))) &^ 7)}
	}
	checkCollector(t, collectorCase{
		tiles:    tiles,
		pageBits: 12, // small pages so the page stream actually exercises reuse
		l1:       Geom{Sets: 8, Ways: 2},
		// Fewer L2 sets than L1 sets, so L2 victims are often still in
		// L1 and back-invalidation is exercised.
		l2:         Geom{Sets: 4, Ways: 8},
		tlbEntries: 8,
		keep:       collectorKeep,
		mruEvery:   97,
	}, trace)
}

// TestGlobalMRUBounded checks the recency record's contract under
// pressure: with a small keep and many distinct lines it never holds
// more than 2*keep keys, it does prune, and GlobalMRU(n ≤ keep) stays
// exactly the n most recently touched lines.
func TestGlobalMRUBounded(t *testing.T) {
	const universe, keep = 1000, 64
	rng := rand.New(rand.NewSource(11))
	c := newCollector(1, 12, Geom{Sets: 1, Ways: 1}, Geom{Sets: 1, Ways: 1}, 1, keep)
	brute := &BruteStack{}
	prunes, prev := 0, 0
	for i := 0; i < 60000; i++ {
		la := uint64(rng.Intn(universe))
		c.Touch(0, mem.Addr(la<<mem.LineShift))
		brute.Touch(la)
		n := c.global.last.Len()
		if n > 2*keep {
			t.Fatalf("access %d: recency record holds %d keys, bound 2*%d", i, n, keep)
		}
		if n < prev {
			prunes++
		}
		prev = n
		if i%101 == 0 {
			for _, k := range []int{1, keep / 3, keep} {
				if got, want := c.GlobalMRU(k), brute.MRU(k); !slices.Equal(got, want) {
					t.Fatalf("access %d: GlobalMRU(%d) %v != brute %v", i, k, got, want)
				}
			}
		}
	}
	if prunes == 0 {
		t.Fatal("expected the recency record to prune")
	}
}

// FuzzCollectorMatchesBrute runs checkCollector on arbitrary traces and
// geometries. The first seven bytes choose the tile count, L1/L2 sets
// and ways, dTLB entries and the shared-stream bound. Each following
// byte, up to 128 of them, is one access: the top two bits pick the
// tile, the low six one of 64 lines in pages of four lines. Traces stay
// short because the fuzzer minimizes each new input with a number of
// runs quadratic in its length.
func FuzzCollectorMatchesBrute(f *testing.F) {
	f.Add([]byte{3, 1, 1, 2, 3, 3, 7, 0, 1, 65, 2, 130, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		cc := collectorCase{
			tiles:      1 + int(data[0]%4),
			pageBits:   mem.LineShift + 2,
			l1:         Geom{Sets: 1 << (data[1] % 3), Ways: 1 + int(data[2]%3)},
			l2:         Geom{Sets: 1 << (data[3] % 4), Ways: 1 + int(data[4]%4)},
			tlbEntries: 1 + int(data[5]%8),
			keep:       1 + int(data[6]%16),
			mruEvery:   16,
		}
		var trace []access
		for _, b := range data[7:min(len(data), 7+128)] {
			trace = append(trace, access{int(b>>6) % cc.tiles, mem.Addr(b&63) << mem.LineShift})
		}
		checkCollector(t, cc, trace)
	})
}

// scatterStream returns n accesses shaped like ff-scatter's
// fast-forwarded prefix: 16 tiles, each reading its own slice of a 4 MB
// edge array in sequential 4-byte words and scattering to random words
// of a 512 KB rank array, interleaved in 64-access batches as the
// fast-forward loop's fairness sleeps interleave them.
func scatterStream(n int) []access {
	const (
		tiles, batch    = 16, 64
		vertices, edges = 64 << 10, 1 << 20
		rankBase        = mem.Addr(1 << 30)
		edgeBase        = mem.Addr(2 << 30)
	)
	rng := rand.New(rand.NewSource(1))
	next := make([]uint64, tiles)
	for t := range next {
		next[t] = uint64(t) * edges / tiles
	}
	out := make([]access, 0, n)
	for len(out) < n {
		for t := 0; t < tiles; t++ {
			for i := 0; i < batch/2; i++ {
				out = append(out,
					access{t, edgeBase + mem.Addr(next[t]*4&^7)},
					access{t, rankBase + mem.Addr(rng.Intn(vertices)*8)})
				next[t]++
			}
		}
	}
	return out[:n]
}

// newScatterCollector builds a collector for the Table 3 machine's
// private levels and dTLB at 16 tiles, as fast-forward does.
func newScatterCollector() *Collector {
	return NewCollector(16, 21, Geom{Sets: 64, Ways: 8}, Geom{Sets: 256, Ways: 8}, 64)
}

var sinkSample Sample

// BenchmarkCollectorTouch prices one fast-forwarded access's collector
// work on an ff-scatter-shaped stream, in steady state.
func BenchmarkCollectorTouch(b *testing.B) {
	stream := scatterStream(1 << 20)
	c := newScatterCollector()
	for _, a := range stream {
		c.Touch(a.tile, a.addr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := stream[i&(len(stream)-1)]
		sinkSample = c.Touch(a.tile, a.addr)
	}
}

// TestCollectorTouchAllocs gates the collector's steady state at zero
// allocations per Touch: the filters, the shared-level stack (whose
// compactions reuse their arrays) and the recency record all work in
// place once they have grown to the stream's working set.
func TestCollectorTouchAllocs(t *testing.T) {
	stream := scatterStream(1 << 16)
	c := newScatterCollector()
	pass := func() {
		for _, a := range stream {
			sinkSample = c.Touch(a.tile, a.addr)
		}
	}
	// Warm up until the shared-level stack's slot space has grown to its
	// steady size, eight times its live keys (about four passes here).
	for i := 0; i < 8; i++ {
		pass()
	}
	if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
		t.Fatalf("%v allocs per pass of %d touches, want 0", allocs, len(stream))
	}
}

// TestExactCacheRejectsNonPowerOfTwoSets: the filters index a set by
// masking, so a set count that is not a power of two panics, naming the
// geometry.
func TestExactCacheRejectsNonPowerOfTwoSets(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "3 sets × 2 ways") {
			t.Fatalf("panic %q, want one naming the 3-set geometry", msg)
		}
	}()
	newExactCache(Geom{Sets: 3, Ways: 2})
}
