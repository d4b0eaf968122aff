// Package mem provides the memory substrate for the täkō simulator:
// physical addresses, 64-byte cache lines with typed accessors, a sparse
// backing store, and an address-space allocator that distinguishes real
// (memory-backed) regions from phantom regions, which exist only in
// caches and are materialized by Morph callbacks (täkō §4.1).
package mem

import (
	"encoding/binary"
	"fmt"

	"tako/internal/flat"
)

// Addr is a (physical) memory address. The simulator uses a single flat
// address space; virtual addresses equal physical addresses except for
// phantom ranges, which have no backing frames at all.
type Addr uint64

const (
	// LineSize is the cache line size in bytes (Table 3: 64 B lines).
	LineSize = 64
	// LineShift is log2(LineSize).
	LineShift = 6
	// WordsPerLine is the number of 64-bit words per line.
	WordsPerLine = LineSize / 8
	// PageSize is the (huge) page granularity used for allocation and
	// TLB modeling. The paper uses 2 MB pages for phantom data (§9);
	// we default allocation alignment to 4 KB and let the TLB model
	// choose its page size.
	PageSize = 4096
)

// Line returns the line-aligned address containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// Offset returns a's byte offset within its cache line.
func (a Addr) Offset() uint64 { return uint64(a) & (LineSize - 1) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Line is the contents of one cache line.
type Line [LineSize]byte

// U64 reads the 64-bit word at byte offset off (must be 8-aligned).
func (l *Line) U64(off uint64) uint64 {
	return binary.LittleEndian.Uint64(l[off : off+8])
}

// SetU64 writes the 64-bit word at byte offset off (must be 8-aligned).
func (l *Line) SetU64(off uint64, v uint64) {
	binary.LittleEndian.PutUint64(l[off:off+8], v)
}

// U32 reads the 32-bit word at byte offset off (must be 4-aligned).
func (l *Line) U32(off uint64) uint32 {
	return binary.LittleEndian.Uint32(l[off : off+4])
}

// SetU32 writes the 32-bit word at byte offset off (must be 4-aligned).
func (l *Line) SetU32(off uint64, v uint32) {
	binary.LittleEndian.PutUint32(l[off:off+4], v)
}

// Word reads the i-th 64-bit word of the line (i in [0, WordsPerLine)).
func (l *Line) Word(i int) uint64 { return l.U64(uint64(i) * 8) }

// SetWord writes the i-th 64-bit word of the line.
func (l *Line) SetWord(i int, v uint64) { l.SetU64(uint64(i)*8, v) }

// IsZero reports whether every byte of the line is zero.
func (l *Line) IsZero() bool {
	for _, b := range l {
		if b != 0 {
			return false
		}
	}
	return true
}

const (
	// PageShift is log2(PageSize): the arena's chunk granularity.
	PageShift = 12
	// LinesPerPage is the number of cache lines per arena chunk.
	LinesPerPage = PageSize / LineSize
)

// pageChunk is one page of backing storage, its lines stored inline.
type pageChunk struct {
	lines [LinesPerPage]Line
}

// slabChunks is how many chunks each allocation slab holds (~256 KB).
// Chunks are handed out from fixed-size slabs, never from a growable
// slice, so *Line pointers returned by LineAt stay valid forever.
const slabChunks = 64

// Memory is a sparse backing store, addressed by line. Missing lines
// read as zero. Memory carries real data so that callback semantics (PHI
// update application, journaling, decompression) can be verified against
// functional baselines.
//
// Storage is a page-granular arena: the first write to any line in a 4
// KB page (or a LineAt, which hands out a mutable pointer) claims a whole
// pageChunk (64 lines inline) from a slab, and a dense open-addressed
// index maps page number → chunk. Reads and writes within a touched page
// are then one hash probe plus direct array indexing — no per-line
// allocation or per-line map entry. Reads (PeekLine, ReadU64, ReadU32)
// of an untouched page return zeros and claim nothing, so a read-only
// region costs no host memory.
type Memory struct {
	index  flat.Table[int32] // page number -> index into chunks
	chunks []*pageChunk
	slab   []pageChunk // current slab; chunks are carved off its front
}

// NewMemory returns an empty (all-zero) backing store.
func NewMemory() *Memory {
	return &Memory{}
}

// claim carves a fresh chunk for page.
func (m *Memory) claim(page uint64) *pageChunk {
	if len(m.slab) == 0 {
		m.slab = make([]pageChunk, slabChunks)
	}
	ch := &m.slab[0]
	m.slab = m.slab[1:]
	m.index.Put(page, int32(len(m.chunks)))
	m.chunks = append(m.chunks, ch)
	return ch
}

// lineIfTouched returns the line containing a, or nil when its page was
// never claimed (it reads as zero).
func (m *Memory) lineIfTouched(a Addr) *Line {
	i, ok := m.index.Get(uint64(a) >> PageShift)
	if !ok {
		return nil
	}
	return &m.chunks[i].lines[(uint64(a)>>LineShift)&(LinesPerPage-1)]
}

// LineAt returns a mutable pointer to the line containing a, allocating
// its page on first touch. The pointer stays valid for the Memory's
// lifetime.
func (m *Memory) LineAt(a Addr) *Line {
	if l := m.lineIfTouched(a); l != nil {
		return l
	}
	return &m.claim(uint64(a) >> PageShift).lines[(uint64(a)>>LineShift)&(LinesPerPage-1)]
}

// PeekLine copies the line containing a into dst without allocating.
func (m *Memory) PeekLine(a Addr, dst *Line) {
	if l := m.lineIfTouched(a); l != nil {
		*dst = *l
	} else {
		*dst = Line{}
	}
}

// WriteLine stores src as the line containing a.
func (m *Memory) WriteLine(a Addr, src *Line) {
	*m.LineAt(a) = *src
}

// ReadU64 reads the 64-bit word at a (must be 8-aligned).
func (m *Memory) ReadU64(a Addr) uint64 {
	if l := m.lineIfTouched(a); l != nil {
		return l.U64(a.Offset())
	}
	return 0
}

// WriteU64 writes the 64-bit word at a (must be 8-aligned).
func (m *Memory) WriteU64(a Addr, v uint64) {
	m.LineAt(a).SetU64(a.Offset(), v)
}

// ReadU32 reads the 32-bit word at a (must be 4-aligned).
func (m *Memory) ReadU32(a Addr) uint32 {
	if l := m.lineIfTouched(a); l != nil {
		return l.U32(a.Offset())
	}
	return 0
}

// WriteU32 writes the 32-bit word at a (must be 4-aligned).
func (m *Memory) WriteU32(a Addr, v uint32) {
	m.LineAt(a).SetU32(a.Offset(), v)
}
