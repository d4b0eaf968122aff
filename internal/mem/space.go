package mem

import (
	"fmt"
	"sync"
)

// Region is a named, contiguous address range. Phantom regions are not
// backed by memory: their contents exist only in caches and are defined
// by Morph callbacks (täkō §4.1). Real regions are backed by a Memory.
type Region struct {
	Name    string
	Base    Addr
	Size    uint64
	Phantom bool
}

// End returns one past the last address of the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// Lines returns the number of cache lines the region spans.
func (r Region) Lines() uint64 { return (r.Size + LineSize - 1) / LineSize }

// At returns the address of byte offset off within the region, panicking
// on out-of-range offsets: region overflow is always a workload bug.
func (r Region) At(off uint64) Addr {
	if off >= r.Size {
		panic(fmt.Sprintf("mem: offset %d out of region %q (size %d)", off, r.Name, r.Size))
	}
	return r.Base + Addr(off)
}

// Word returns the address of the i-th 64-bit word of the region.
func (r Region) Word(i uint64) Addr { return r.At(i * 8) }

func (r Region) String() string {
	kind := "real"
	if r.Phantom {
		kind = "phantom"
	}
	return fmt.Sprintf("%s[%s: %v+%d)", r.Name, kind, r.Base, r.Size)
}

// Space hands out non-overlapping regions of the simulated address space.
// Real regions grow upward from lowBase; phantom regions grow downward
// from the top of a dedicated phantom window, mirroring how täkō's OS
// support tracks phantom ranges separately from the page table (§6).
// The allocator is safe for concurrent use.
type Space struct {
	mu          sync.Mutex
	nextReal    Addr
	nextPhantom Addr
	regions     []Region
}

const (
	realBase    Addr = 0x0001_0000
	phantomBase Addr = 0x4000_0000_0000 // 64 TB: far from any real data
)

// NewSpace returns an empty address-space allocator.
func NewSpace() *Space {
	return &Space{nextReal: realBase, nextPhantom: phantomBase}
}

func alignUp(a Addr, align Addr) Addr {
	return (a + align - 1) &^ (align - 1)
}

// Alloc reserves a real (memory-backed) region of size bytes, page
// aligned.
func (s *Space) Alloc(name string, size uint64) Region {
	if size == 0 {
		panic("mem: zero-size allocation")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	base := alignUp(s.nextReal, PageSize)
	r := Region{Name: name, Base: base, Size: size}
	s.nextReal = base + Addr(size)
	s.regions = append(s.regions, r)
	return r
}

// AllocPhantom reserves a phantom region of size bytes, page aligned.
// Phantom ranges are requested only by their size (täkō §4.1).
func (s *Space) AllocPhantom(name string, size uint64) Region {
	if size == 0 {
		panic("mem: zero-size phantom allocation")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	base := alignUp(s.nextPhantom, PageSize)
	r := Region{Name: name, Base: base, Size: size, Phantom: true}
	s.nextPhantom = base + Addr(size)
	s.regions = append(s.regions, r)
	return r
}

// Free releases a region. The allocator is a bump allocator, so Free only
// removes bookkeeping; address reuse is not attempted (matching
// unregister's semantics of de-allocating the phantom range without
// recycling it within a run).
func (s *Space) Free(r Region) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.regions {
		if s.regions[i].Base == r.Base {
			s.regions = append(s.regions[:i], s.regions[i+1:]...)
			return
		}
	}
}

// FindRegion returns the region containing a, if any.
func (s *Space) FindRegion(a Addr) (Region, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.regions {
		if r.Contains(a) {
			return r, true
		}
	}
	return Region{}, false
}

// IsPhantom reports whether a falls in any phantom region.
func (s *Space) IsPhantom(a Addr) bool {
	r, ok := s.FindRegion(a)
	return ok && r.Phantom
}
