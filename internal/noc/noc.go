// Package noc models the on-chip interconnect: a k×k mesh with
// dimension-ordered routing, per-hop router and link delays, and flit
// serialization (Table 3: mesh, 128-bit flits and links, 2/1-cycle
// router/link delay). Contention is not modeled at the link level; the
// hierarchy's queueing (MSHRs, DRAM controllers, engine buffers) captures
// the congestion effects the paper's studies depend on.
package noc

import (
	"fmt"

	"tako/internal/energy"
	"tako/internal/sim"
	"tako/internal/stats"
)

// Config describes a mesh interconnect.
type Config struct {
	Width, Height int
	RouterDelay   sim.Cycle // per-hop router pipeline delay
	LinkDelay     sim.Cycle // per-hop link traversal delay
	FlitBytes     int       // flit width in bytes
}

// DefaultConfig returns the Table 3 mesh: 4×4 tiles, 128-bit flits,
// 2-cycle routers, 1-cycle links.
func DefaultConfig(tiles int) Config {
	w := 1
	for w*w < tiles {
		w++
	}
	h := (tiles + w - 1) / w
	return Config{Width: w, Height: h, RouterDelay: 2, LinkDelay: 1, FlitBytes: 16}
}

// Mesh is a mesh interconnect between tiles numbered row-major.
type Mesh struct {
	cfg   Config
	meter *energy.Meter

	// Registry handles (AttachMetrics; nil-safe when never attached).
	mTransfers *stats.Counter
	mFlitHops  *stats.Counter
	mMsgFlits  *stats.Histogram // flits per message (payload size shape)
}

// NewMesh builds a mesh; meter may be nil to skip energy accounting.
func NewMesh(cfg Config, meter *energy.Meter) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: non-positive mesh dimensions")
	}
	if cfg.FlitBytes <= 0 {
		panic("noc: non-positive flit size")
	}
	return &Mesh{cfg: cfg, meter: meter}
}

// AttachMetrics resolves the mesh's registry handles: noc.transfers and
// noc.flithops counters plus a noc.msg.flits histogram of message sizes.
func (m *Mesh) AttachMetrics(r *stats.Registry) {
	m.mTransfers = r.Counter("noc.transfers")
	m.mFlitHops = r.Counter("noc.flithops")
	m.mMsgFlits = r.Histogram("noc.msg.flits")
}

// Tiles returns the number of tile positions in the mesh.
func (m *Mesh) Tiles() int { return m.cfg.Width * m.cfg.Height }

// XY returns the mesh coordinates of a tile.
func (m *Mesh) XY(tile int) (x, y int) {
	if tile < 0 || tile >= m.Tiles() {
		panic(fmt.Sprintf("noc: tile %d out of range", tile))
	}
	return tile % m.cfg.Width, tile / m.cfg.Width
}

// Hops returns the Manhattan distance between two tiles.
func (m *Mesh) Hops(from, to int) int {
	fx, fy := m.XY(from)
	tx, ty := m.XY(to)
	dx, dy := tx-fx, ty-fy
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Flits returns the number of flits needed for a payload of n bytes
// (minimum 1: even a control message occupies a head flit).
func (m *Mesh) Flits(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + m.cfg.FlitBytes - 1) / m.cfg.FlitBytes
}

// Latency returns the cycles for a message of the given payload size to
// travel between two tiles: head latency over the hops plus pipelined
// serialization of the remaining flits. Same-tile messages are free.
func (m *Mesh) Latency(from, to, bytes int) sim.Cycle {
	hops := m.Hops(from, to)
	if hops == 0 {
		return 0
	}
	head := sim.Cycle(hops) * (m.cfg.RouterDelay + m.cfg.LinkDelay)
	return head + sim.Cycle(m.Flits(bytes)-1)
}

// Transfer accounts for a message (energy + metrics) and returns its
// latency. Callers add the returned latency into their transaction.
func (m *Mesh) Transfer(from, to, bytes int) sim.Cycle {
	hops := m.Hops(from, to)
	flits := m.Flits(bytes)
	m.mTransfers.Inc()
	m.mFlitHops.Add(uint64(hops * flits))
	m.mMsgFlits.Observe(uint64(flits))
	if m.meter != nil && hops > 0 {
		m.meter.Add(energy.NoCFlitHop, uint64(hops*flits))
	}
	return m.Latency(from, to, bytes)
}

// AverageHops returns the mean hop distance over all tile pairs; used in
// reports to sanity-check configurations.
func (m *Mesh) AverageHops() float64 {
	n := m.Tiles()
	total := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			total += m.Hops(i, j)
		}
	}
	return float64(total) / float64(n*n)
}
