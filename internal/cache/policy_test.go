package cache

import (
	"math/rand"
	"slices"
	"testing"

	"tako/internal/mem"
)

// TestTRRIPEngineStreamEvictsItself: a stream of engine fills through a
// set churns through the distant-priority slot, evicting its own
// previous line each time, while core-resident lines survive untouched
// (trrîp pollution avoidance, §5.2).
func TestTRRIPEngineStreamEvictsItself(t *testing.T) {
	c := tiny(NewTRRIP())
	for i := 0; i < 3; i++ {
		fill(c, addrFor(0, i), FillOpts{})
	}
	var prev mem.Addr
	for i := 0; i < 20; i++ {
		a := addrFor(0, 10+i)
		ev := fill(c, a, FillOpts{EngineFill: true})
		if ls := c.Lookup(a); ls == nil || !ls.EngineFill || ls.RRPV != rrpvMax {
			t.Fatalf("engine fill %v not inserted at distant priority: %+v", a, ls)
		}
		if i == 0 {
			if ev.Valid {
				t.Fatalf("first engine fill evicted %v from a set with a free way", ev.Tag)
			}
		} else if !ev.Valid || ev.Tag != prev {
			t.Fatalf("engine fill %d evicted %+v, want the previous stream line %v", i, ev, prev)
		}
		prev = a
	}
	for i := 0; i < 3; i++ {
		if c.Lookup(addrFor(0, i)) == nil {
			t.Fatalf("core line %d displaced by the engine stream", i)
		}
	}
}

// TestRRIPVictimTieBreakAndAging pins Victim's determinism at the policy
// level: the first allowed distant way wins, and aging touches only the
// allowed ways.
func TestRRIPVictimTieBreakAndAging(t *testing.T) {
	p := NewTRRIP()
	set := make([]LineState, 4)
	set[0].RRPV, set[1].RRPV, set[2].RRPV, set[3].RRPV = 2, 3, 1, 3
	all := func(int) bool { return true }
	if w := p.Victim(set, all); w != 1 {
		t.Fatalf("victim = %d, want first distant way 1", w)
	}
	// No distant line among the allowed ways: both age to distant and
	// the lower way wins; disallowed ways must not age.
	set[0].RRPV, set[1].RRPV, set[2].RRPV, set[3].RRPV = 1, 2, 0, 2
	only13 := func(w int) bool { return w == 1 || w == 3 }
	if w := p.Victim(set, only13); w != 1 {
		t.Fatalf("victim = %d, want way 1 after aging", w)
	}
	if set[0].RRPV != 1 || set[2].RRPV != 0 {
		t.Fatalf("aging touched disallowed ways: %+v", set)
	}
}

// TestCallbackFreeVictimUnderMorphPressure: sustained Morph insert
// pressure must never consume a set's last callback-free way. After
// every insert the §5.2 invariant holds and every set can still produce
// a CallbackFree victim, so an engine under writeback-buffer pressure
// always has somewhere deadlock-free to put a line.
func TestCallbackFreeVictimUnderMorphPressure(t *testing.T) {
	c := New(Config{Name: "p", SizeBytes: 4 * 4 * mem.LineSize, Ways: 4, Policy: NewTRRIP()})
	sets := c.NumSets()
	for i := 0; i < 64*sets; i++ {
		a := mem.Addr(uint64(i) * mem.LineSize)
		if c.Lookup(a) != nil {
			continue
		}
		opts := FillOpts{Morph: true, Phantom: i%2 == 0, Dirty: i%3 == 0, EngineFill: i%5 == 0}
		if _, _, _, ok := c.Insert(a, nil, opts, VictimConstraint{}); !ok {
			t.Fatalf("insert %d: no victim for a Morph fill", i)
		}
		if err := c.CheckMorphInvariant(); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		for s := 0; s < sets; s++ {
			if c.freeWay(s) < 0 && c.pickVictim(s, VictimConstraint{CallbackFree: true}, false) < 0 {
				t.Fatalf("insert %d: set %d lost its callback-free victim", i, s)
			}
		}
	}
}

// refVictim is victim choice as it was before the scans read RRPV and LRU
// first: it asks allowed about every way, in every round, before it
// reads the way's own state, and returns -1 when no way is allowed.
func refVictim(p Policy, set []LineState, allowed func(int) bool) int {
	if _, ok := p.(*LRU); ok {
		best := -1
		for i := range set {
			if !allowed(i) {
				continue
			}
			if best == -1 || set[i].LRU < set[best].LRU {
				best = i
			}
		}
		return best
	}
	for {
		for i := range set {
			if allowed(i) && set[i].RRPV >= rrpvMax {
				return i
			}
		}
		aged := false
		for i := range set {
			if allowed(i) && set[i].RRPV < rrpvMax {
				set[i].RRPV++
				aged = true
			}
		}
		if !aged {
			return -1
		}
	}
}

// TestVictimMatchesPredicateFirstReference checks victim choice against
// refVictim on random full sets: random RRPVs and LRU stamps (ties
// included), Morph bits, CallbackFree, Morph-only choice, and
// Busy and Avoid predicates. Both must pick the same way and leave the
// same RRPVs. A counting predicate pins the point of reading a way's own
// state first: allowed, and so the Busy and Avoid hooks behind it, runs
// at most once a way, and under RRIP only for distant ways whenever an
// allowed way is distant.
func TestVictimMatchesPredicateFirstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Policy{NewTRRIP(), NewLRU()} {
		for trial := 0; trial < 4000; trial++ {
			ways := 1 + rng.Intn(16)
			c := New(Config{Name: "ref", SizeBytes: 2 * ways * mem.LineSize, Ways: ways, Policy: p})
			busy, avoid := map[mem.Addr]bool{}, map[mem.Addr]bool{}
			for w := 0; w < ways; w++ {
				a := mem.Addr(2 * w * mem.LineSize) // set 0
				c.install(0, w, a, nil, FillOpts{Morph: rng.Intn(3) == 0})
				l := &c.set(0)[w]
				l.RRPV, l.LRU = uint8(rng.Intn(rrpvMax+1)), uint64(rng.Intn(2*ways))
				busy[a], avoid[a] = rng.Intn(4) == 0, rng.Intn(4) == 0
			}
			constraint := VictimConstraint{CallbackFree: rng.Intn(4) == 0}
			if rng.Intn(2) == 0 {
				constraint.Busy = func(tag mem.Addr) bool { return busy[tag] }
			}
			if rng.Intn(2) == 0 {
				constraint.Avoid = func(tag mem.Addr) bool { return avoid[tag] }
			}
			morphOnly := rng.Intn(4) == 0

			before := slices.Clone(c.set(0))
			ref := slices.Clone(before)
			c.vcBase, c.vcConstraint, c.vcMorphOnly = 0, constraint, morphOnly
			want := refVictim(p, ref, c.allowedFn)
			allowed := make([]bool, ways)
			for i := range allowed {
				allowed[i] = c.allowedFn(i)
			}

			asked := make([]int, ways)
			inner := c.allowedFn
			c.allowedFn = func(i int) bool { asked[i]++; return inner(i) }
			got := c.pickVictim(0, constraint, morphOnly)
			c.allowedFn = inner

			if got != want {
				t.Fatalf("%s trial %d: victim %d, reference %d\nset %+v\nallowed %v",
					p.Name(), trial, got, want, before, allowed)
			}
			for i := range ref {
				if c.set(0)[i].RRPV != ref[i].RRPV {
					t.Fatalf("%s trial %d: way %d RRPV %d, reference %d\nset %+v\nallowed %v",
						p.Name(), trial, i, c.set(0)[i].RRPV, ref[i].RRPV, before, allowed)
				}
			}
			distant := false
			for i := range before {
				distant = distant || allowed[i] && before[i].RRPV >= rrpvMax
			}
			for i, n := range asked {
				if n > 1 {
					t.Fatalf("%s trial %d: allowed asked about way %d %d times", p.Name(), trial, i, n)
				}
				if n > 0 && p.Name() == "trrip" && distant && before[i].RRPV < rrpvMax {
					t.Fatalf("%s trial %d: allowed asked about way %d at RRPV %d though an allowed way is distant",
						p.Name(), trial, i, before[i].RRPV)
				}
			}
		}
	}
}
