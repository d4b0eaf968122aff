package cache

import (
	"testing"

	"tako/internal/mem"
)

// FuzzCacheOps drives a small trrîp cache with arbitrary
// insert/touch/extract/lookup/busy sequences against a flat residency
// model: every line that goes in must come out (via eviction or
// extraction) with the same data, lookups must return what was inserted,
// no insert may evict a line its Busy predicate names, and the
// structural (tag words included) and §5.2 morph invariants must hold
// after every step.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 3, 1, 1, 0, 2, 1, 0})
	f.Add([]byte{0, 5, 6, 0, 5, 2, 3, 5, 0, 0, 9, 1})
	// Fill set 0's eight ways, mark two lines busy, and insert two more
	// into the full set.
	f.Add([]byte{0, 0, 0, 0, 4, 0, 0, 8, 0, 0, 12, 0, 0, 16, 0, 0, 20, 0, 0, 24, 0, 0, 28, 0,
		4, 0, 0, 6, 4, 0, 0, 32, 0, 0, 36, 0, 5, 0, 0, 0, 40, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		c := New(Config{Name: "fuzz", SizeBytes: 4 * 8 * mem.LineSize, Ways: 8, Policy: NewTRRIP()})
		model := make(map[mem.Addr]uint64)
		busy := make(map[mem.Addr]bool)
		isBusy := func(tag mem.Addr) bool { return busy[tag] }
		verify := func(step int) {
			if err := c.CheckReplacementState(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := c.CheckMorphInvariant(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if c.ValidLines() != len(model) {
				t.Fatalf("step %d: cache holds %d lines, model %d", step, c.ValidLines(), len(model))
			}
		}
		var stamp uint64
		for i := 0; i+3 <= len(script); i += 3 {
			op, idx, flags := script[i], script[i+1], script[i+2]
			a := mem.Addr(0x4000 + uint64(idx%64)*mem.LineSize)
			switch op % 7 {
			case 0: // insert
				if c.Lookup(a) != nil {
					break // Insert rejects duplicate tags by design
				}
				opts := FillOpts{
					Dirty:      flags&1 != 0,
					Morph:      flags&2 != 0,
					Phantom:    flags&2 != 0 && flags&4 != 0,
					EngineFill: flags&8 != 0,
				}
				constraint := VictimConstraint{CallbackFree: flags&16 != 0, Busy: isBusy}
				var line mem.Line
				line.SetWord(0, stamp+1)
				tag, evicted, out, ok := c.Insert(a, &line, opts, constraint)
				if !ok {
					break
				}
				stamp++
				if out {
					want, tracked := model[tag]
					if !tracked {
						t.Fatalf("step %d: evicted untracked line %v", i, tag)
					}
					if evicted.Data.Word(0) != want {
						t.Fatalf("step %d: evicted %v data %d, want %d", i, tag, evicted.Data.Word(0), want)
					}
					if busy[tag] {
						t.Fatalf("step %d: evicted %v, which is busy", i, tag)
					}
					delete(model, tag)
				}
				model[a] = stamp
			case 1: // touch (hit promotion)
				if c.Lookup(a) != nil {
					c.Touch(a)
				}
			case 2: // extract
				if ls, ok := c.ExtractLine(a); ok {
					want, tracked := model[a]
					if !tracked {
						t.Fatalf("step %d: extracted untracked line %v", i, a)
					}
					if ls.Data.Word(0) != want {
						t.Fatalf("step %d: extracted %v data %d, want %d", i, a, ls.Data.Word(0), want)
					}
					delete(model, a)
				} else if _, tracked := model[a]; tracked {
					t.Fatalf("step %d: model holds %v but cache lost it", i, a)
				}
			case 3: // lookup
				ls := c.Lookup(a)
				want, tracked := model[a]
				if tracked != (ls != nil) {
					t.Fatalf("step %d: residency of %v: cache=%v model=%v", i, a, ls != nil, tracked)
				}
				if ls != nil && ls.Data.Word(0) != want {
					t.Fatalf("step %d: lookup %v data %d, want %d", i, a, ls.Data.Word(0), want)
				}
			case 4, 5, 6: // the line's lock is taken or released
				busy[a] = !busy[a]
			}
			verify(i)
		}
	})
}
