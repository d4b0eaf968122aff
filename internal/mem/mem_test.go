package mem

import (
	"testing"
	"testing/quick"
)

func TestAddrLineAndOffset(t *testing.T) {
	cases := []struct {
		a      Addr
		line   Addr
		offset uint64
	}{
		{0, 0, 0},
		{63, 0, 63},
		{64, 64, 0},
		{0x1234, 0x1200, 0x34},
	}
	for _, c := range cases {
		if c.a.Line() != c.line {
			t.Errorf("%v.Line() = %v, want %v", c.a, c.a.Line(), c.line)
		}
		if c.a.Offset() != c.offset {
			t.Errorf("%v.Offset() = %d, want %d", c.a, c.a.Offset(), c.offset)
		}
	}
}

func TestQuickLineDecomposition(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		return addr.Line()+Addr(addr.Offset()) == addr &&
			addr.Line()%LineSize == 0 &&
			addr.Offset() < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineWordAccessors(t *testing.T) {
	var l Line
	for i := 0; i < WordsPerLine; i++ {
		l.SetWord(i, uint64(i)*0x1111_1111)
	}
	for i := 0; i < WordsPerLine; i++ {
		if l.Word(i) != uint64(i)*0x1111_1111 {
			t.Fatalf("word %d = %x", i, l.Word(i))
		}
	}
	if l.IsZero() {
		t.Fatal("nonzero line reported zero")
	}
	l = Line{}
	if !l.IsZero() {
		t.Fatal("zero line reported nonzero")
	}
}

func TestLineU32(t *testing.T) {
	var l Line
	l.SetU32(4, 0xdeadbeef)
	if l.U32(4) != 0xdeadbeef {
		t.Fatalf("u32 = %x", l.U32(4))
	}
	// Low half of word 0 untouched.
	if l.U32(0) != 0 {
		t.Fatalf("adjacent u32 clobbered: %x", l.U32(0))
	}
}

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	if got := m.ReadU64(0x1000); got != 0 {
		t.Fatalf("untouched memory = %x, want 0", got)
	}
	m.WriteU64(0x1000, 42)
	if got := m.ReadU64(0x1000); got != 42 {
		t.Fatalf("readback = %d, want 42", got)
	}
	var l Line
	m.PeekLine(0x1008, &l)
	if l.Word(0) != 42 {
		t.Fatalf("PeekLine word0 = %d, want 42", l.Word(0))
	}
}

func TestMemoryLineRoundTrip(t *testing.T) {
	m := NewMemory()
	var src Line
	for i := range src {
		src[i] = byte(i)
	}
	m.WriteLine(0x2000, &src)
	var dst Line
	m.PeekLine(0x2010, &dst) // any addr in the line
	if dst != src {
		t.Fatal("line did not round-trip")
	}
}

func TestQuickMemoryReadBack(t *testing.T) {
	m := NewMemory()
	f := func(slot uint16, v uint64) bool {
		a := Addr(slot) * 8
		m.WriteU64(a, v)
		return m.ReadU64(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryArenaPointerStability verifies LineAt pointers survive
// arbitrary later growth: chunks come from fixed slabs, never a
// reallocating slice, so a held *Line must keep reading and writing the
// same storage.
func TestMemoryArenaPointerStability(t *testing.T) {
	m := NewMemory()
	type held struct {
		a Addr
		p *Line
	}
	var refs []held
	for i := 0; i < 2000; i++ {
		a := Addr(i) * PageSize // one line per page: maximal chunk churn
		p := m.LineAt(a)
		p.SetU64(0, uint64(i)+1)
		refs = append(refs, held{a, p})
	}
	for _, r := range refs {
		if r.p != m.LineAt(r.a) {
			t.Fatalf("LineAt(%v) moved", r.a)
		}
		if got := m.ReadU64(r.a); got != r.p.U64(0) {
			t.Fatalf("held pointer for %v out of sync: %d vs %d", r.a, r.p.U64(0), got)
		}
	}
}

// TestMemoryPopulatedLines verifies the arena claims storage a page at a
// time, and only on the accessors that write or hand out a mutable line:
// PeekLine, ReadU64 and ReadU32 of an untouched page read zeros and claim
// nothing (so a read-only region, like fig25full's edge array, costs no
// host memory), while WriteU64, WriteU32 and LineAt claim the page's
// chunk.
func TestMemoryPopulatedLines(t *testing.T) {
	m := NewMemory()
	if n := len(m.chunks); n != 0 {
		t.Fatalf("fresh memory has %d chunks", n)
	}
	m.WriteU64(0x0, 1)      // line 0 of page 0
	m.WriteU64(0x8, 2)      // same line
	m.WriteU64(0x40, 3)     // line 1, same page
	m.WriteU64(0x10_000, 4) // new page
	if n := len(m.chunks); n != 2 {
		t.Fatalf("chunks = %d, want 2", n)
	}
	var l Line
	l.SetU64(0, 0xff)
	m.PeekLine(0x20_000, &l) // peek does not materialize
	if !l.IsZero() {
		t.Fatalf("PeekLine of an untouched page = %x, want zeros", l.U64(0))
	}
	if n := len(m.chunks); n != 2 {
		t.Fatalf("PeekLine materialized: chunks = %d, want 2", n)
	}
	if v := m.ReadU64(0x20_008); v != 0 {
		t.Fatalf("ReadU64 of an untouched page = %d, want 0", v)
	}
	if v := m.ReadU32(0x20_044); v != 0 {
		t.Fatalf("ReadU32 of an untouched page = %d, want 0", v)
	}
	if n := len(m.chunks); n != 2 {
		t.Fatalf("word reads materialized: chunks = %d, want 2", n)
	}
	if v := m.ReadU64(0x8); v != 2 {
		t.Fatalf("ReadU64 of a touched page = %d, want 2", v)
	}
	m.WriteU32(0x20_044, 5) // writes claim
	if n := len(m.chunks); n != 3 {
		t.Fatalf("WriteU32 did not claim: chunks = %d, want 3", n)
	}
	if v := m.ReadU32(0x20_044); v != 5 {
		t.Fatalf("ReadU32 after WriteU32 = %d, want 5", v)
	}
	m.LineAt(0x30_000) // a mutable pointer claims
	if n := len(m.chunks); n != 4 {
		t.Fatalf("LineAt did not claim: chunks = %d, want 4", n)
	}
}

// TestMemoryArenaMatchesMapReference churns the arena and a plain
// map-backed shadow through random line writes/reads and requires
// identical contents — the memory-side differential check for the
// data-layout overhaul.
func TestMemoryArenaMatchesMapReference(t *testing.T) {
	m := NewMemory()
	ref := make(map[Addr]Line)
	// Deterministic pseudo-random walk over a sparse, page-straddling
	// address set.
	x := uint64(0x243F6A8885A308D3)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := 0; i < 20000; i++ {
		a := Addr(next() % (1 << 22)).Line()
		if next()%3 == 0 {
			var l Line
			l.SetU64(0, next())
			m.WriteLine(a, &l)
			ref[a] = l
		} else {
			var got Line
			m.PeekLine(a, &got)
			if want := ref[a]; got != want {
				t.Fatalf("iteration %d: line %v = %v, shadow has %v", i, a, got.U64(0), want.U64(0))
			}
		}
	}
}

func TestSpaceAllocDisjoint(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("a", 1000)
	b := s.Alloc("b", 5000)
	p := s.AllocPhantom("p", 4096)
	regions := []Region{a, b, p}
	for i := range regions {
		for j := range regions {
			if i == j {
				continue
			}
			if regions[i].Contains(regions[j].Base) {
				t.Fatalf("regions overlap: %v and %v", regions[i], regions[j])
			}
		}
	}
	if !p.Phantom || a.Phantom {
		t.Fatal("phantom flags wrong")
	}
	if a.Base%PageSize != 0 || p.Base%PageSize != 0 {
		t.Fatal("regions not page aligned")
	}
}

func TestSpaceFindRegion(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("a", 128)
	p := s.AllocPhantom("p", 128)
	if got, ok := s.FindRegion(a.Base + 64); !ok || got.Name != "a" {
		t.Fatalf("FindRegion(real) = %v, %v", got, ok)
	}
	if !s.IsPhantom(p.Base) {
		t.Fatal("IsPhantom(phantom base) = false")
	}
	if s.IsPhantom(a.Base) {
		t.Fatal("IsPhantom(real base) = true")
	}
	if _, ok := s.FindRegion(0xdead_beef_0000); ok {
		t.Fatal("found region for wild address")
	}
}

func TestSpaceFree(t *testing.T) {
	s := NewSpace()
	p := s.AllocPhantom("p", 128)
	s.Free(p)
	if _, ok := s.FindRegion(p.Base); ok {
		t.Fatal("freed region still found")
	}
}

func TestRegionAccessors(t *testing.T) {
	s := NewSpace()
	r := s.Alloc("r", 256)
	if r.Lines() != 4 {
		t.Fatalf("Lines = %d, want 4", r.Lines())
	}
	if r.Word(3) != r.Base+24 {
		t.Fatalf("Word(3) = %v", r.Word(3))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range offset")
		}
	}()
	r.At(256)
}

func TestRegionContainsBounds(t *testing.T) {
	r := Region{Name: "x", Base: 0x1000, Size: 64}
	if !r.Contains(0x1000) || !r.Contains(0x103f) {
		t.Fatal("region excludes its own bytes")
	}
	if r.Contains(0xfff) || r.Contains(0x1040) {
		t.Fatal("region includes out-of-range bytes")
	}
}
