package hier

// ValidLines counts the valid lines of every tile's L1d, engine L1d and
// L2 and of every L3 bank, for the external tests.
func (h *Hierarchy) ValidLines() int {
	n := 0
	for _, t := range h.tiles {
		n += t.l1.ValidLines() + t.el1.ValidLines() + t.l2.ValidLines() + t.l3.ValidLines()
	}
	return n
}
