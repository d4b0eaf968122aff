package analytic

import (
	"math/rand"
	"strings"
	"testing"
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

// TestNewStackRejectsSlotOverflow checks that a keep bound whose slot
// space would overflow the stack's int32 slots panics at construction,
// naming the bound, instead of wrapping slots later, and that the
// largest allowed bound is accepted.
func TestNewStackRejectsSlotOverflow(t *testing.T) {
	if s := NewStack(maxKeep); s.keep != maxKeep {
		t.Fatalf("keep = %d, want %d", s.keep, maxKeep)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "overflows the stack's int32 slots") {
			t.Fatalf("NewStack(maxKeep+1) panicked with %q, want an int32 overflow message", msg)
		}
	}()
	NewStack(maxKeep + 1)
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
