package hier

import "tako/internal/sim"

// Lookahead returns the conservative parallel-simulation lookahead for
// this hierarchy: the minimum number of cycles any cross-tile
// interaction takes. Every cross-tile effect in the model — directory
// messages, data transfers between sibling caches, engine spawns on
// remote tiles — travels over the mesh and therefore pays at least
// Mesh.MinCrossTileLatency cycles. Tile-sharded execution (sim.Sharded)
// may advance every tile that many cycles between synchronization points
// without reordering any observable interaction.
func (h *Hierarchy) Lookahead() sim.Cycle {
	la := h.Mesh.MinCrossTileLatency()
	if la < 1 {
		la = 1
	}
	return la
}
