package analytic

import (
	"math/rand"
	"testing"

	"tako/internal/mem"
)

// TestStackMatchesBrute pins the Fenwick-tree stack against the literal
// recency-list reference on random traces across several universe sizes
// and skews.
func TestStackMatchesBrute(t *testing.T) {
	for _, tc := range []struct {
		name     string
		universe int
		accesses int
		skewed   bool
	}{
		{"tiny", 8, 5000, false},
		{"small", 100, 20000, false},
		{"medium", 1500, 40000, false},
		{"skewed", 800, 40000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.universe)))
			fast := NewStack(tc.universe + 1) // never drops
			brute := &BruteStack{}
			for i := 0; i < tc.accesses; i++ {
				var key uint64
				if tc.skewed {
					// Zipf-ish: square the draw to concentrate on low keys.
					u := rng.Float64()
					key = uint64(float64(tc.universe) * u * u)
				} else {
					key = uint64(rng.Intn(tc.universe))
				}
				fd, fc := fast.Touch(key)
				bd, bc := brute.Touch(key)
				if fc != bc || (!fc && fd != bd) {
					t.Fatalf("access %d key %d: fast (%d,%v) != brute (%d,%v)", i, key, fd, fc, bd, bc)
				}
			}
			if fast.Live() != brute.Live() {
				t.Fatalf("live: fast %d != brute %d", fast.Live(), brute.Live())
			}
			fm, bm := fast.MRU(64), brute.MRU(64)
			if len(fm) != len(bm) {
				t.Fatalf("MRU length: %d != %d", len(fm), len(bm))
			}
			for i := range fm {
				if fm[i] != bm[i] {
					t.Fatalf("MRU[%d]: fast %d != brute %d", i, fm[i], bm[i])
				}
			}
		})
	}
}

// TestStackCompactionExact forces many slot-space compactions (the
// initial Fenwick tree holds ~1K slots) and checks distances stay exact
// when the live set fits the keep bound.
func TestStackCompactionExact(t *testing.T) {
	const universe = 3000
	rng := rand.New(rand.NewSource(7))
	fast := NewStack(universe) // live == keep at steady state: compacts, never drops
	brute := &BruteStack{}
	for i := 0; i < 150000; i++ {
		key := uint64(rng.Intn(universe))
		fd, fc := fast.Touch(key)
		bd, bc := brute.Touch(key)
		if fc != bc || (!fc && fd != bd) {
			t.Fatalf("access %d key %d: fast (%d,%v) != brute (%d,%v)", i, key, fd, fc, bd, bc)
		}
	}
	if fast.Dropped != 0 {
		t.Fatalf("dropped %d keys despite live <= keep", fast.Dropped)
	}
}

// TestStackDropTail checks the bounded stack's contract under pressure:
// non-cold distances stay exact, and every spuriously-cold re-touch is
// of a key whose true distance was at least the keep bound (so any
// finite cache estimate is unperturbed).
func TestStackDropTail(t *testing.T) {
	const universe, keep = 1000, 64
	rng := rand.New(rand.NewSource(11))
	fast := NewStack(keep)
	brute := &BruteStack{}
	spurious := 0
	for i := 0; i < 60000; i++ {
		key := uint64(rng.Intn(universe))
		fd, fc := fast.Touch(key)
		bd, bc := brute.Touch(key)
		if !fc {
			if bc || fd != bd {
				t.Fatalf("access %d key %d: non-cold fast (%d) != brute (%d,%v)", i, key, fd, bd, bc)
			}
		} else if !bc {
			spurious++
			if bd < keep {
				t.Fatalf("access %d key %d: dropped key re-touched at true distance %d < keep %d", i, key, bd, keep)
			}
		}
	}
	if fast.Dropped == 0 || spurious == 0 {
		t.Fatalf("expected drop pressure (dropped=%d spurious=%d)", fast.Dropped, spurious)
	}
}

// TestCollectorMatchesBrute pins the three collector granularities —
// per-tile line, global line, per-tile page — against brute references
// on a multi-tile interleaved trace that mixes real regions with a
// phantom range.
func TestCollectorMatchesBrute(t *testing.T) {
	const tiles = 4
	const pageBits = 12 // small pages so the page stream actually exercises reuse
	space := mem.NewSpace()
	real1 := space.Alloc("ranks", 1<<16)
	real2 := space.Alloc("edges", 1<<17)
	phantom := space.AllocPhantom("ubbuf", 1<<16)
	regions := []mem.Region{real1, real2, phantom}

	c := NewCollector(tiles, pageBits)
	bTileLine := make([]*BruteStack, tiles)
	bTilePage := make([]*BruteStack, tiles)
	bGlobal := &BruteStack{}
	for i := range bTileLine {
		bTileLine[i] = &BruteStack{}
		bTilePage[i] = &BruteStack{}
	}

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40000; i++ {
		tile := rng.Intn(tiles)
		r := regions[rng.Intn(len(regions))]
		a := r.At(uint64(rng.Intn(int(r.Size))) &^ 7)
		write := rng.Intn(4) == 0
		s := c.Touch(tile, a, write)

		la := uint64(a >> mem.LineShift)
		td, tc := bTileLine[tile].Touch(la)
		gd, gc := bGlobal.Touch(la)
		pd, pc := bTilePage[tile].Touch(uint64(a) >> pageBits)
		if s.TileDist != td || s.TileCold != tc {
			t.Fatalf("access %d: tile dist (%d,%v) != brute (%d,%v)", i, s.TileDist, s.TileCold, td, tc)
		}
		if s.GlobalDist != gd || s.GlobalCold != gc {
			t.Fatalf("access %d: global dist (%d,%v) != brute (%d,%v)", i, s.GlobalDist, s.GlobalCold, gd, gc)
		}
		if s.PageDist != pd || s.PageCold != pc {
			t.Fatalf("access %d: page dist (%d,%v) != brute (%d,%v)", i, s.PageDist, s.PageCold, pd, pc)
		}
	}
}

// TestHitProb sanity-checks the set-associative hit-probability model.
func TestHitProb(t *testing.T) {
	fa := Geom{Sets: 1, Ways: 64}
	for d := 0; d < 64; d++ {
		if p := fa.HitProb(d, false); p != 1 {
			t.Fatalf("fully-assoc d=%d: got %v, want 1", d, p)
		}
	}
	if p := fa.HitProb(64, false); p != 0 {
		t.Fatalf("fully-assoc d=64: got %v, want 0", p)
	}
	sa := Geom{Sets: 64, Ways: 8}
	if p := sa.HitProb(3, true); p != 0 {
		t.Fatalf("cold: got %v, want 0", p)
	}
	if p := sa.HitProb(7, false); p != 1 {
		t.Fatalf("d<ways: got %v, want 1", p)
	}
	prev := 1.0
	for d := 8; d < 4096; d += 64 {
		p := sa.HitProb(d, false)
		if p < 0 || p > 1 {
			t.Fatalf("d=%d: p=%v out of range", d, p)
		}
		if p > prev+1e-12 {
			t.Fatalf("d=%d: p=%v not monotone (prev %v)", d, p, prev)
		}
		prev = p
	}
	// At capacity the set-associative hit probability should be well
	// below 1 but nonzero; far beyond capacity it should vanish.
	if p := sa.HitProb(sa.Lines(), false); p <= 0 || p >= 0.9 {
		t.Fatalf("at capacity: p=%v implausible", p)
	}
	if p := sa.HitProb(sa.Lines()*100, false); p != 0 {
		t.Fatalf("far beyond capacity: p=%v, want 0", p)
	}
}
