// Package core implements the täkō programming interface — the paper's
// primary contribution (§4): Morphs bundle software callbacks (onMiss,
// onEviction, onWriteback) that the cache hierarchy invokes when data
// moves, transforming the semantics of an address range. Morphs register
// on phantom ranges (cache-only, not backed by memory) or on real
// addresses, at the PRIVATE (L2) or SHARED (L3) level.
//
// The Tako runtime owns registration bookkeeping, implements the
// hierarchy's Registry (address → Morph binding) and the engines'
// Program (Morph → callback specs and per-engine views), and provides
// flushData for synchronization between callbacks and threads (§4.4).
package core

import (
	"errors"
	"fmt"
	"slices"

	"tako/internal/engine"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
)

// Level re-exports the hierarchy's Morph registration levels for API
// users.
type Level = hier.Level

// Registration levels (§4.1): PRIVATE registers at the tile's L2,
// SHARED at the L3. täkō supports neither L1 nor memory-side Morphs.
const (
	Private = hier.LevelPrivate
	Shared  = hier.LevelShared
)

// Callback is one Morph callback: a handler plus its static dataflow
// mapping (dynamic instruction count and critical-path length on the
// fabric).
type Callback struct {
	Instrs   int
	CritPath int
	Fn       func(*engine.Ctx)
}

// MorphSpec declares a Morph type: its callbacks and per-engine view
// constructor. Nil callbacks are not invoked (Table 1 rows marked "-").
type MorphSpec struct {
	Name        string
	OnMiss      *Callback
	OnEviction  *Callback
	OnWriteback *Callback
	// SequentialMiss serializes all onMiss invocations on an engine
	// (HATS protects its traversal stack this way, §8.2).
	SequentialMiss bool
	// NewView builds the engine-local view of the Morph object for a
	// tile (§4.2): state shared by all callbacks on that engine.
	// PRIVATE Morphs get one view; SHARED Morphs one per L3 bank.
	NewView func(tile int) interface{}
	// ProtectHint is the onReplacement extension the paper leaves to
	// future work (§4.5): when non-nil, victim selection avoids the
	// Morph's lines for which it returns true, letting software bias
	// the eviction policy (in the spirit of P-OPT [10]). Hints are
	// advisory: a set with no other candidate evicts anyway.
	ProtectHint func(mem.Addr) bool
}

// TotalInstrs returns the fabric instruction-memory footprint of the
// Morph's callbacks.
func (s MorphSpec) TotalInstrs() int {
	n := 0
	for _, cb := range []*Callback{s.OnMiss, s.OnEviction, s.OnWriteback} {
		if cb != nil {
			n += cb.Instrs
		}
	}
	return n
}

// Morph is a registered Morph instance (§4.2). Multiple instances of the
// same or different specs may be live simultaneously on disjoint ranges.
type Morph struct {
	ID     int
	Spec   MorphSpec
	Level  Level
	Region mem.Region
	// Tile is the registering tile: PRIVATE Morphs flush there.
	Tile int

	tako         *Tako
	views        map[int]interface{}
	unregistered bool
}

// Views returns the Morph's engine views keyed by tile, letting software
// initialize local state (§4.2: "views are gathered in the views
// array").
func (m *Morph) Views() map[int]interface{} { return m.views }

// View returns (creating if needed) the view on one tile.
func (m *Morph) View(tile int) interface{} {
	if v, ok := m.views[tile]; ok {
		return v
	}
	if m.Spec.NewView == nil {
		return nil
	}
	v := m.Spec.NewView(tile)
	m.views[tile] = v
	return v
}

// Tako is the runtime connecting software, the cache hierarchy, and the
// engines. It implements hier.Registry and engine.Program. Every tile
// sees the one registry: a registration is visible machine-wide as soon
// as it is installed, and the registering thread pays RegisterCost for
// the OS bookkeeping and TLB shootdown (§6).
type Tako struct {
	K     *sim.Kernel
	Space *mem.Space
	H     *hier.Hierarchy
	E     *engine.Engines

	morphs  []*Morph // live registrations, in registration order
	hinted  []*Morph // the live registrations with a ProtectHint, in registration order
	nextSeq int      // last minted Morph ID

	// RegisterCost models the OS work of (un)registration: page-table
	// style bookkeeping plus TLB shootdowns (§6).
	RegisterCost sim.Cycle
}

// New creates the runtime. Attach the hierarchy and engines with Attach
// before registering Morphs.
func New(k *sim.Kernel, space *mem.Space) *Tako {
	return &Tako{K: k, Space: space, RegisterCost: 1000}
}

// Attach wires the runtime to its hierarchy and engines.
func (t *Tako) Attach(h *hier.Hierarchy, e *engine.Engines) {
	t.H = h
	t.E = e
}

// Binding implements hier.Registry: resolve a against the registry.
func (t *Tako) Binding(a mem.Addr) (hier.Binding, bool) {
	for _, m := range t.morphs {
		if m.Region.Contains(a) {
			return hier.Binding{
				MorphID:      m.ID,
				Level:        m.Level,
				Phantom:      m.Region.Phantom,
				Region:       m.Region,
				Tile:         m.Tile,
				HasMiss:      m.Spec.OnMiss != nil,
				HasEviction:  m.Spec.OnEviction != nil,
				HasWriteback: m.Spec.OnWriteback != nil,
			}, true
		}
	}
	return hier.Binding{}, false
}

// Protected implements hier.Registry: the ProtectHint of the Morph
// registered on tag, if it has one. Registrations never overlap, so
// only the hinted ones need a look, and a machine without hints answers
// at once.
func (t *Tako) Protected(tag mem.Addr) bool {
	for _, m := range t.hinted {
		if m.Region.Contains(tag) {
			return m.Spec.ProtectHint(tag)
		}
	}
	return false
}

// Spec implements engine.Program.
func (t *Tako) Spec(morphID int, kind hier.CallbackKind) (engine.Spec, bool) {
	m := t.byID(morphID)
	if m == nil {
		return engine.Spec{}, false
	}
	var cb *Callback
	seq := false
	switch kind {
	case hier.CbMiss:
		cb, seq = m.Spec.OnMiss, m.Spec.SequentialMiss
	case hier.CbEviction:
		cb = m.Spec.OnEviction
	case hier.CbWriteback:
		cb = m.Spec.OnWriteback
	}
	if cb == nil {
		return engine.Spec{}, false
	}
	return engine.Spec{
		Cost:       engine.CallbackCost{Instrs: cb.Instrs, CritPath: cb.CritPath},
		Sequential: seq,
		Fn:         cb.Fn,
	}, true
}

// View implements engine.Program.
func (t *Tako) View(morphID, tile int) interface{} {
	m := t.byID(morphID)
	if m == nil {
		return nil
	}
	return m.View(tile)
}

func (t *Tako) byID(id int) *Morph {
	for _, m := range t.morphs {
		if m.ID == id {
			return m
		}
	}
	return nil
}

var (
	// ErrOverlap is returned when a registration overlaps a live Morph
	// (§4.1: only one Morph per address).
	ErrOverlap = errors.New("tako: address range already has a Morph registered")
	// ErrBadLevel rejects registrations outside PRIVATE/SHARED.
	ErrBadLevel = errors.New("tako: Morphs register at PRIVATE or SHARED only")
)

// validate checks a registration against the live Morphs.
func (t *Tako) validate(spec MorphSpec, level Level, region mem.Region) error {
	if level != Private && level != Shared {
		return ErrBadLevel
	}
	for _, m := range t.morphs {
		if region.Base < m.Region.End() && m.Region.Base < region.End() {
			return fmt.Errorf("%w: %v overlaps %v", ErrOverlap, region, m.Region)
		}
	}
	if t.E != nil {
		if err := t.E.ValidateFit(spec.TotalInstrs()); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tako) install(p *sim.Proc, spec MorphSpec, level Level, region mem.Region, tile int) *Morph {
	t.nextSeq++
	m := &Morph{
		ID: t.nextSeq, Spec: spec, Level: level, Region: region, Tile: tile,
		tako: t, views: make(map[int]interface{}),
	}
	// Eagerly create views so software can initialize local state:
	// one for PRIVATE, one per bank for SHARED (§4.2).
	if spec.NewView != nil {
		if level == Private {
			m.View(tile)
		} else {
			for i := 0; i < t.H.Tiles(); i++ {
				m.View(i)
			}
		}
	}
	t.morphs = append(t.morphs, m)
	if spec.ProtectHint != nil {
		t.hinted = append(t.hinted, m)
	}
	p.Sleep(t.RegisterCost) // OS bookkeeping + TLB shootdown (§6)
	return m
}

// RegisterPhantom allocates a phantom address range of the given size
// and registers the Morph on it (§4.1). Phantom data lives only in
// caches; onMiss and onWriteback define the semantics of loads and
// stores to the range.
func (t *Tako) RegisterPhantom(p *sim.Proc, spec MorphSpec, level Level, size uint64, tile int) (*Morph, error) {
	region := t.Space.AllocPhantom(spec.Name, size)
	if err := t.validate(spec, level, region); err != nil {
		t.Space.Free(region)
		return nil, err
	}
	return t.install(p, spec, level, region, tile), nil
}

// RegisterReal registers the Morph over existing, memory-backed
// addresses. The range is flushed from all caches first so stale copies
// cannot bypass the new semantics (§4.1).
func (t *Tako) RegisterReal(p *sim.Proc, spec MorphSpec, level Level, region mem.Region, tile int) (*Morph, error) {
	if region.Phantom {
		return nil, errors.New("tako: RegisterReal requires a real region")
	}
	if err := t.validate(spec, level, region); err != nil {
		return nil, err
	}
	t.H.InvalidateRegion(p, region)
	return t.install(p, spec, level, region, tile), nil
}

// FlushData flushes all of the Morph's cached data, triggering
// onEviction/onWriteback, and blocks until every callback completes:
// afterwards there are no further racing writes from callbacks (§4.4).
func (t *Tako) FlushData(p *sim.Proc, m *Morph) {
	t.H.FlushRegion(p, m.Tile, m.Region, m.Level)
}

// Unregister removes the Morph: its range is flushed (with callbacks),
// the registration is dropped, and phantom ranges are de-allocated
// (§4.1).
func (t *Tako) Unregister(p *sim.Proc, m *Morph) {
	if m.unregistered {
		return
	}
	t.FlushData(p, m)
	m.unregistered = true
	t.morphs = slices.DeleteFunc(t.morphs, func(mm *Morph) bool { return mm == m })
	t.hinted = slices.DeleteFunc(t.hinted, func(mm *Morph) bool { return mm == m })
	if m.Region.Phantom {
		t.Space.Free(m.Region)
	}
	p.Sleep(t.RegisterCost)
}
