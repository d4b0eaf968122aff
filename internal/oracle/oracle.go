// Package oracle is the differential-verification subsystem: a flat
// reference memory model cross-checked against the modeled hierarchy at
// every commit point, plus hooks into the hierarchy-wide invariant
// checker.
//
// The oracle attaches to a hier.Hierarchy as an Observer. A sparse
// shadow memory receives every committed store/atomic in simulator
// commit order (the hierarchy fires hooks in the same kernel event as
// the functional change, and the kernel runs one process at a time, so
// hook order IS architectural order). Every committed load is compared
// against the shadow; divergence means the hierarchy returned a value no
// sequentially-consistent-per-location execution could produce — a
// coherence, replacement, or callback bug.
//
// Phantom ranges have no memory backing, so the harness gives them
// oracle-defined semantics (tracegen.go): ShadowPhantom regions are
// backed by the shadow itself (onMiss reads it, onWriteback verifies
// and updates it), and Derived regions are read-only transforms of a
// real source region. This makes every load of a phantom address
// checkable too.
package oracle

import (
	"fmt"

	"tako/internal/hier"
	"tako/internal/mem"
)

// RegionKind tells the oracle how a tracked region behaves.
type RegionKind int

// Region kinds.
const (
	// Plain is ordinary memory-backed data: loads checked, stores
	// shadowed, final state swept against the hierarchy.
	Plain RegionKind = iota
	// ShadowPhantom is a phantom range whose truth IS the shadow: the
	// harness Morph materializes lines from it and verifies evictions
	// against it.
	ShadowPhantom
	// Derived is a read-only phantom range computed from a real source
	// region; the shadow holds the precomputed transform.
	Derived
	// Journal is callback-written data (engine stores around the L2):
	// transient loads are unchecked — a load can race the callback's
	// store commit against its shadow mirror — but the final sweep
	// verifies no journaled write was dropped (per-line writebacks are
	// serialized by the line lock, so the final state is well-defined).
	Journal
	// Untracked data is ignored.
	Untracked
)

func (k RegionKind) String() string {
	switch k {
	case Plain:
		return "plain"
	case ShadowPhantom:
		return "shadow-phantom"
	case Derived:
		return "derived"
	case Journal:
		return "journal"
	default:
		return "untracked"
	}
}

// Mismatch records one divergence between the hierarchy and the
// reference model.
type Mismatch struct {
	Op        string
	Tile      int
	Addr      mem.Addr
	Got, Want uint64
}

func (m Mismatch) String() string {
	return fmt.Sprintf("%s tile %d %v: got %#x want %#x", m.Op, m.Tile, m.Addr, m.Got, m.Want)
}

type tracked struct {
	region mem.Region
	kind   RegionKind
}

// Oracle implements hier.Observer over a flat reference memory.
type Oracle struct {
	h       *hier.Hierarchy
	shadow  *mem.Memory
	regions []tracked

	// CheckEvery > 0 runs the hierarchy-wide invariant checker every
	// that many hierarchy events, recording violations.
	CheckEvery int

	events uint64

	// Operation counts (also the determinism fingerprint's input).
	Loads, Stores, RMOs, EngineOps uint64

	// nMismatch counts all divergences; Mismatches keeps the first few.
	nMismatch   int
	nViolation  int
	Mismatches  []Mismatch
	Violations  []string
	maxRecorded int
}

// New builds an oracle over h's address space and attaches it as h's
// observer.
func New(h *hier.Hierarchy) *Oracle {
	o := &Oracle{h: h, shadow: mem.NewMemory(), maxRecorded: 16}
	h.AttachObserver(o)
	return o
}

// Shadow exposes the reference memory so harnesses can seed initial
// data and callbacks can materialize phantom lines.
func (o *Oracle) Shadow() *mem.Memory { return o.shadow }

// Track registers a region with the oracle.
func (o *Oracle) Track(r mem.Region, kind RegionKind) {
	o.regions = append(o.regions, tracked{r, kind})
}

// KindOf returns a's region kind (Untracked when no region matches).
func (o *Oracle) KindOf(a mem.Addr) RegionKind {
	for _, t := range o.regions {
		if t.region.Contains(a) {
			return t.kind
		}
	}
	return Untracked
}

func (o *Oracle) checked(a mem.Addr) bool {
	switch o.KindOf(a) {
	case Plain, ShadowPhantom, Derived:
		return true
	}
	return false
}

func (o *Oracle) mismatch(op string, tile int, a mem.Addr, got, want uint64) {
	o.nMismatch++
	if len(o.Mismatches) < o.maxRecorded {
		o.Mismatches = append(o.Mismatches, Mismatch{op, tile, a, got, want})
	}
}

func (o *Oracle) violation(site string, err error) {
	o.nViolation++
	if len(o.Violations) < o.maxRecorded {
		o.Violations = append(o.Violations, fmt.Sprintf("after %s: %v", site, err))
	}
}

// MismatchCount returns the total number of divergences (recorded or
// not).
func (o *Oracle) MismatchCount() int { return o.nMismatch }

// Err summarizes any recorded problem, nil when the run was clean.
func (o *Oracle) Err() error {
	if o.nMismatch == 0 && o.nViolation == 0 {
		return nil
	}
	return fmt.Errorf("oracle: %d mismatches %v, %d invariant violations %v",
		o.nMismatch, o.Mismatches, o.nViolation, o.Violations)
}

// Fingerprint folds the oracle's observation counts into a string;
// equal-seed runs must produce byte-identical fingerprints.
func (o *Oracle) Fingerprint() string {
	return fmt.Sprintf("loads=%d stores=%d rmos=%d engine=%d events=%d",
		o.Loads, o.Stores, o.RMOs, o.EngineOps, o.events)
}

// ---- hier.Observer ----

// LoadCommitted checks a committed load word against the shadow.
func (o *Oracle) LoadCommitted(tile int, a mem.Addr, v uint64) {
	o.Loads++
	if !o.checked(a) {
		return
	}
	aw := a &^ 7
	if want := o.shadow.ReadU64(aw); v != want {
		o.mismatch("load", tile, aw, v, want)
	}
}

// LineLoaded checks a committed full-line load against the shadow.
func (o *Oracle) LineLoaded(tile int, a mem.Addr, line *mem.Line) {
	o.Loads++
	if !o.checked(a) {
		return
	}
	la := a.Line()
	var want mem.Line
	o.shadow.PeekLine(la, &want)
	for w := 0; w < mem.WordsPerLine; w++ {
		if line.Word(w) != want.Word(w) {
			o.mismatch("loadline", tile, la+mem.Addr(w*8), line.Word(w), want.Word(w))
			return
		}
	}
}

// StoreCommitted applies a committed store word to the shadow.
func (o *Oracle) StoreCommitted(tile int, a mem.Addr, v uint64) {
	o.Stores++
	if o.KindOf(a) == Untracked {
		return
	}
	o.shadow.WriteU64(a&^7, v)
}

// LineStored applies a committed full-line store to the shadow.
func (o *Oracle) LineStored(tile int, a mem.Addr, line *mem.Line, nt bool) {
	o.Stores++
	if o.KindOf(a) == Untracked {
		return
	}
	o.shadow.WriteLine(a.Line(), line)
}

// RMOCommitted checks a read-modify-write's observed old value and
// applies its result, in commit order.
func (o *Oracle) RMOCommitted(tile int, a mem.Addr, op hier.RMOOp, operand, old, result uint64) {
	o.RMOs++
	if o.KindOf(a) == Untracked {
		return
	}
	aw := a &^ 7
	if want := o.shadow.ReadU64(aw); old != want {
		o.mismatch("rmo-old", tile, aw, old, want)
	}
	o.shadow.WriteU64(aw, result)
}

// ExchangeCommitted checks an atomic exchange's returned value and
// applies the swap.
func (o *Oracle) ExchangeCommitted(tile int, a mem.Addr, v, old uint64) {
	o.RMOs++
	if o.KindOf(a) == Untracked {
		return
	}
	aw := a &^ 7
	if want := o.shadow.ReadU64(aw); old != want {
		o.mismatch("xchg-old", tile, aw, old, want)
	}
	o.shadow.WriteU64(aw, v)
}

// EngineAccess counts callback-issued accesses (journal writes etc. are
// oracle-untracked; the harness Morphs verify their own data).
func (o *Oracle) EngineAccess(tile int, a mem.Addr, write bool) { o.EngineOps++ }

// Event drives the periodic hierarchy-wide invariant check.
func (o *Oracle) Event(site string) {
	o.events++
	if o.CheckEvery > 0 && o.events%uint64(o.CheckEvery) == 0 {
		if err := o.h.CheckInvariants(); err != nil {
			o.violation(site, err)
		}
	}
}

// ---- harness-side checks ----

// CheckEvictedLine verifies an evicted line's data against the shadow;
// ShadowPhantom callbacks call it from onEviction/onWriteback, where the
// evicted data must equal the shadow (every store to the line already
// committed there, and the line is locked until the callback finishes).
func (o *Oracle) CheckEvictedLine(op string, tile int, la mem.Addr, line *mem.Line) {
	var want mem.Line
	o.shadow.PeekLine(la, &want)
	for w := 0; w < mem.WordsPerLine; w++ {
		if line.Word(w) != want.Word(w) {
			o.mismatch(op, tile, la+mem.Addr(w*8), line.Word(w), want.Word(w))
			return
		}
	}
}

// VerifyFinal sweeps every tracked Plain and Journal region, comparing
// the architecturally-newest hierarchy value of each word against the
// shadow, and runs a last full invariant check. Call it after the
// simulation quiesces.
func (o *Oracle) VerifyFinal() {
	for _, t := range o.regions {
		if t.kind != Plain && t.kind != Journal {
			continue
		}
		for i := uint64(0); i < t.region.Size/8; i++ {
			a := t.region.Word(i)
			got := o.h.DebugReadWord(a)
			want := o.shadow.ReadU64(a)
			if got != want {
				o.mismatch("final", -1, a, got, want)
			}
		}
	}
	if err := o.h.CheckInvariants(); err != nil {
		o.violation("final", err)
	}
}
