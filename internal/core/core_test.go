package core_test

import (
	"errors"
	"testing"

	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/engine"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/system"
)

// counterMorph fills lines with a marker and counts invocations.
type counts struct {
	miss, evict, wb int
	lastWBWord      uint64
}

func counterSpec(name string, c *counts) core.MorphSpec {
	return core.MorphSpec{
		Name: name,
		OnMiss: &core.Callback{
			Instrs: 8, CritPath: 3,
			Fn: func(ctx *engine.Ctx) {
				c.miss++
				for i := 0; i < mem.WordsPerLine; i++ {
					ctx.Line.SetWord(i, uint64(ctx.Addr)+uint64(i))
				}
			},
		},
		OnEviction: &core.Callback{
			Instrs: 4, CritPath: 2,
			Fn: func(ctx *engine.Ctx) { c.evict++ },
		},
		OnWriteback: &core.Callback{
			Instrs: 6, CritPath: 3,
			Fn: func(ctx *engine.Ctx) {
				c.wb++
				c.lastWBWord = ctx.Line.Word(0)
			},
		},
	}
}

func TestPhantomMorphLifecycle(t *testing.T) {
	s := system.New(system.Default(4))
	var c counts
	var vals [3]uint64
	s.Go(0, "main", func(p *sim.Proc, cc *cpu.Core) {
		m, err := s.Tako.RegisterPhantom(p, counterSpec("ctr", &c), core.Private, 64*1024, 0)
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		a := m.Region.Base
		vals[0] = cc.Load(p, a)     // miss → onMiss
		vals[1] = cc.Load(p, a)     // hit
		vals[2] = cc.Load(p, a+128) // different line → onMiss
		cc.Store(p, a, 777)         // dirty the first line
		s.Tako.FlushData(p, m)      // → onWriteback (dirty) + onEviction (clean)
		if got := cc.Load(p, a); got != uint64(a) {
			t.Errorf("reload after flush = %d, want fresh onMiss fill %d", got, uint64(a))
		}
		s.Tako.Unregister(p, m)
		if _, ok := s.Tako.Binding(a); ok {
			t.Error("binding survives unregister")
		}
	})
	s.Run()
	if vals[0] == 0 || vals[0] != vals[1] {
		t.Fatalf("phantom values: %v", vals)
	}
	if c.miss != 3 { // a, a+128, reload of a
		t.Fatalf("onMiss count = %d, want 3", c.miss)
	}
	if c.wb != 1 {
		t.Fatalf("onWriteback count = %d, want 1", c.wb)
	}
	if c.lastWBWord != 777 {
		t.Fatalf("onWriteback saw %d, want 777", c.lastWBWord)
	}
	if c.evict < 1 { // line a+128 was clean at flush; reloaded a flushed at unregister
		t.Fatalf("onEviction count = %d, want ≥1", c.evict)
	}
	if s.H.DRAM.Accesses() != 0 {
		t.Fatalf("phantom Morph touched DRAM %d times", s.H.DRAM.Accesses())
	}
}

func TestOverlapRejected(t *testing.T) {
	s := system.New(system.Default(2))
	var c counts
	s.Go(0, "main", func(p *sim.Proc, cc *cpu.Core) {
		spec := counterSpec("a", &c)
		m, err := s.Tako.RegisterPhantom(p, spec, core.Private, 4096, 0)
		if err != nil {
			t.Errorf("first register failed: %v", err)
			return
		}
		_, err = s.Tako.RegisterReal(p, counterSpec("b", &c), core.Shared,
			mem.Region{Name: "overlap", Base: m.Region.Base, Size: 64}, 0)
		if !errors.Is(err, core.ErrOverlap) {
			t.Errorf("overlap not rejected: %v", err)
		}
	})
	s.Run()
}

func TestBadLevelRejected(t *testing.T) {
	s := system.New(system.Default(2))
	var c counts
	s.Go(0, "main", func(p *sim.Proc, cc *cpu.Core) {
		_, err := s.Tako.RegisterPhantom(p, counterSpec("x", &c), hier.LevelNone, 4096, 0)
		if !errors.Is(err, core.ErrBadLevel) {
			t.Errorf("bad level accepted: %v", err)
		}
	})
	s.Run()
}

func TestOversizedMorphRejected(t *testing.T) {
	s := system.New(system.Default(2))
	spec := core.MorphSpec{
		Name:   "huge",
		OnMiss: &core.Callback{Instrs: 10_000, CritPath: 10, Fn: func(*engine.Ctx) {}},
	}
	s.Go(0, "main", func(p *sim.Proc, cc *cpu.Core) {
		if _, err := s.Tako.RegisterPhantom(p, spec, core.Private, 4096, 0); err == nil {
			t.Error("oversized Morph accepted by 400-slot fabric")
		}
	})
	s.Run()
}

func TestRealAddressMorphEvictionOnly(t *testing.T) {
	// The side-channel pattern (§8.4): Morph on real data, onEviction
	// only. Loads keep load-store semantics (data from memory).
	s := system.New(system.Default(2))
	evictions := 0
	spec := core.MorphSpec{
		Name:       "watch",
		OnEviction: &core.Callback{Instrs: 2, CritPath: 1, Fn: func(*engine.Ctx) { evictions++ }},
	}
	region := s.Alloc("secret", 4096)
	s.H.DRAM.Store().WriteU64(region.Base, 4242)
	s.Go(0, "main", func(p *sim.Proc, cc *cpu.Core) {
		m, err := s.Tako.RegisterReal(p, spec, core.Private, region, 0)
		if err != nil {
			t.Errorf("register real: %v", err)
			return
		}
		if v := cc.Load(p, region.Base); v != 4242 {
			t.Errorf("real Morph load = %d, want 4242 (load-store semantics)", v)
		}
		s.Tako.FlushData(p, m)
	})
	s.Run()
	if evictions != 1 {
		t.Fatalf("onEviction count = %d, want 1", evictions)
	}
}

func TestViewsPerLevel(t *testing.T) {
	s := system.New(system.Default(4))
	mkSpec := func(name string) core.MorphSpec {
		return core.MorphSpec{
			Name:    name,
			OnMiss:  &core.Callback{Instrs: 1, CritPath: 1, Fn: func(*engine.Ctx) {}},
			NewView: func(tile int) interface{} { return &counts{} },
		}
	}
	s.Go(0, "main", func(p *sim.Proc, cc *cpu.Core) {
		priv, err := s.Tako.RegisterPhantom(p, mkSpec("p"), core.Private, 4096, 2)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if len(priv.Views()) != 1 {
			t.Errorf("PRIVATE views = %d, want 1", len(priv.Views()))
		}
		if priv.View(2) == nil {
			t.Error("registering tile has no view")
		}
		sh, err := s.Tako.RegisterPhantom(p, mkSpec("s"), core.Shared, 4096, 0)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if len(sh.Views()) != 4 {
			t.Errorf("SHARED views = %d, want one per bank (4)", len(sh.Views()))
		}
	})
	s.Run()
}

func TestViewVisibleInCallback(t *testing.T) {
	s := system.New(system.Default(2))
	type state struct{ fills int }
	spec := core.MorphSpec{
		Name: "v",
		OnMiss: &core.Callback{
			Instrs: 1, CritPath: 1,
			Fn: func(ctx *engine.Ctx) {
				ctx.View().(*state).fills++
			},
		},
		NewView: func(tile int) interface{} { return &state{} },
	}
	var m *core.Morph
	s.Go(0, "main", func(p *sim.Proc, cc *cpu.Core) {
		var err error
		m, err = s.Tako.RegisterPhantom(p, spec, core.Private, 4096, 0)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		cc.Load(p, m.Region.Base)
		cc.Load(p, m.Region.Base+64)
	})
	s.Run()
	if got := m.View(0).(*state).fills; got != 2 {
		t.Fatalf("view state fills = %d, want 2", got)
	}
}

func TestMultipleInstancesCoexist(t *testing.T) {
	s := system.New(system.Default(2))
	var c1, c2 counts
	s.Go(0, "main", func(p *sim.Proc, cc *cpu.Core) {
		m1, err1 := s.Tako.RegisterPhantom(p, counterSpec("a", &c1), core.Private, 4096, 0)
		m2, err2 := s.Tako.RegisterPhantom(p, counterSpec("b", &c2), core.Private, 4096, 0)
		if err1 != nil || err2 != nil {
			t.Errorf("register: %v %v", err1, err2)
			return
		}
		cc.Load(p, m1.Region.Base)
		cc.Load(p, m2.Region.Base)
		cc.Load(p, m2.Region.Base+64)
	})
	s.Run()
	if c1.miss != 1 || c2.miss != 2 {
		t.Fatalf("per-instance misses: %d, %d", c1.miss, c2.miss)
	}
}

func TestSharedMorphCallbacksAtHomeBanks(t *testing.T) {
	s := system.New(system.Default(4))
	tiles := map[int]bool{}
	spec := core.MorphSpec{
		Name: "sh",
		OnMiss: &core.Callback{
			Instrs: 2, CritPath: 1,
			Fn: func(ctx *engine.Ctx) { tiles[ctx.Tile] = true },
		},
	}
	s.Go(0, "main", func(p *sim.Proc, cc *cpu.Core) {
		m, err := s.Tako.RegisterPhantom(p, spec, core.Shared, 64*1024, 0)
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		for i := 0; i < 16; i++ {
			cc.Load(p, m.Region.Base+mem.Addr(i*64))
		}
	})
	s.Run()
	if len(tiles) != 4 {
		t.Fatalf("SHARED onMiss ran on %d banks, want 4 (interleaved homes)", len(tiles))
	}
}

// TestProtectedFollowsRegistrations: the victim hook answers from the
// live hinted Morphs alone. A hint registered mid-run is honoured at
// once, a Morph without a hint protects nothing, and unregistering a
// Morph drops its hint.
func TestProtectedFollowsRegistrations(t *testing.T) {
	s := system.New(system.Default(1))
	s.Go(0, "main", func(p *sim.Proc, cc *cpu.Core) {
		plain, err := s.Tako.RegisterPhantom(p, core.MorphSpec{Name: "plain"}, core.Private, 1<<16, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 64; i++ {
			cc.Load(p, plain.Region.Base+mem.Addr(i*64))
		}
		if s.Tako.Protected(plain.Region.Base) {
			t.Error("a Morph without a hint protected its line")
		}
		var hot mem.Addr
		spec := core.MorphSpec{Name: "hinted", ProtectHint: func(a mem.Addr) bool { return a.Line() == hot }}
		hinted, err := s.Tako.RegisterPhantom(p, spec, core.Private, 1<<16, 0)
		if err != nil {
			t.Error(err)
			return
		}
		hot = hinted.Region.Base + 64
		cc.Load(p, hot)
		if !s.Tako.Protected(hot) || !s.Tako.Protected(hot+8) {
			t.Error("a hint registered mid-run was not honoured")
		}
		if s.Tako.Protected(hinted.Region.Base) || s.Tako.Protected(plain.Region.Base+64) {
			t.Error("a hint protected a line it does not name")
		}
		s.Tako.Unregister(p, hinted)
		if s.Tako.Protected(hot) {
			t.Error("an unregistered Morph's hint still protects its line")
		}
	})
	s.Run()
}

func TestProtectHintKeepsLinesLonger(t *testing.T) {
	// The onReplacement extension (§4.5): a Morph protects one hot
	// phantom line; under eviction pressure the protected line should
	// survive while unprotected siblings churn.
	run := func(protect bool) int {
		cfg := system.Default(1)
		cfg.Hier.L2Size = 8 * 1024 // 128 lines: heavy pressure
		cfg.Hier.L1Size = 1 * 1024
		s := system.New(cfg)
		var hotFills int
		var hotLine mem.Addr
		spec := core.MorphSpec{
			Name: "protected",
			OnMiss: &core.Callback{
				Instrs: 2, CritPath: 1,
				Fn: func(ctx *engine.Ctx) {
					if ctx.Addr == hotLine {
						hotFills++
					}
				},
			},
		}
		if protect {
			spec.ProtectHint = func(a mem.Addr) bool { return a.Line() == hotLine }
		}
		s.Go(0, "main", func(p *sim.Proc, cc *cpu.Core) {
			m, err := s.Tako.RegisterPhantom(p, spec, core.Private, 1<<20, 0)
			if err != nil {
				t.Errorf("%v", err)
				return
			}
			hotLine = m.Region.Base
			for i := 0; i < 2000; i++ {
				cc.Load(p, hotLine)                             // hot line
				cc.Load(p, m.Region.Base+mem.Addr((i%2048)*64)) // churn
			}
		})
		s.Run()
		return hotFills
	}
	unprotected := run(false)
	protected := run(true)
	if protected >= unprotected {
		t.Fatalf("protection did not help: %d fills protected vs %d unprotected",
			protected, unprotected)
	}
	if protected > 3 {
		t.Fatalf("protected hot line still refilled %d times", protected)
	}
}
