// Package workloads provides the inputs the paper's evaluation runs on:
// synthetic graphs with and without community structure (standing in for
// uk-2002 and the 160M-edge synthetic graphs, scaled down per DESIGN.md),
// push-style PageRank reference implementations, Zipfian index streams
// for the decompression study [21], and base+delta compressed data sets.
package workloads

import (
	"math/rand"

	"tako/internal/mem"
)

// Graph is a directed graph in CSR form.
type Graph struct {
	V, E      int
	Offsets   []uint64 // V+1 entries into Neighbors
	Neighbors []uint64 // E destination vertex ids
}

// OutDegree returns vertex v's out-degree.
func (g *Graph) OutDegree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neigh returns v's adjacency slice.
func (g *Graph) Neigh(v int) []uint64 {
	return g.Neighbors[g.Offsets[v]:g.Offsets[v+1]]
}

// newCSR allocates an empty CSR shell for the given degree counts
// (deg[i] = out-degree of vertex i on entry; consumed into the prefix-sum
// offsets) and returns per-vertex fill cursors. Generators stream edges
// into the shell in a second pass instead of materializing adjacency
// lists — at 100M+ edges the per-vertex slice headers and append
// doublings of the old adjacency representation cost several times the
// CSR itself.
func newCSR(deg []uint64) (*Graph, []uint32) {
	v := len(deg)
	g := &Graph{V: v, Offsets: make([]uint64, v+1)}
	for i, d := range deg {
		g.Offsets[i+1] = g.Offsets[i] + d
	}
	g.E = int(g.Offsets[v])
	g.Neighbors = make([]uint64, g.E)
	return g, make([]uint32, v)
}

// push appends dst to src's adjacency run in generation order.
func (g *Graph) push(cursor []uint32, src int, dst uint64) {
	g.Neighbors[g.Offsets[src]+uint64(cursor[src])] = dst
	cursor[src]++
}

// GenUniform generates a graph with e edges whose endpoints are chosen
// uniformly at random: no community structure, the worst case for
// locality-oriented traversal scheduling. Generation is two-pass
// streaming — the RNG stream is replayed once to count degrees and once
// to place edges — so peak memory is the CSR arrays themselves.
func GenUniform(v, e int, seed int64) *Graph {
	deg := make([]uint64, v)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < e; i++ {
		src := rng.Intn(v)
		_ = rng.Intn(v) // dst draw kept in stream order for pass 2
		deg[src]++
	}
	g, cursor := newCSR(deg)
	rng = rand.New(rand.NewSource(seed))
	for i := 0; i < e; i++ {
		src := rng.Intn(v)
		dst := rng.Intn(v)
		g.push(cursor, src, uint64(dst))
	}
	return g
}

// GenCommunity generates a graph with strong community structure
// ([13, 78]; the property HATS exploits, §8.2): vertices are partitioned
// into communities and each edge stays inside its source's community
// with probability pIntra. Vertex ids are shuffled so memory order does
// not coincide with community order — exactly the situation where
// vertex-ordered traversal loses locality and BDFS recovers it. Same
// two-pass streaming scheme as GenUniform.
func GenCommunity(v, e, communities int, pIntra float64, seed int64) *Graph {
	if communities < 1 {
		communities = 1
	}
	commOf := make([]int, v)
	members := make([][]int, communities)
	edge := func(rng *rand.Rand) (int, int) {
		src := rng.Intn(v)
		var dst int
		if rng.Float64() < pIntra {
			m := members[commOf[src]]
			dst = m[rng.Intn(len(m))]
		} else {
			dst = rng.Intn(v)
		}
		return src, dst
	}

	rng := rand.New(rand.NewSource(seed))
	// Assign shuffled ids to communities.
	perm := rng.Perm(v)
	for i, p := range perm {
		c := i * communities / v
		commOf[p] = c
		members[c] = append(members[c], p)
	}
	deg := make([]uint64, v)
	for i := 0; i < e; i++ {
		src, _ := edge(rng)
		deg[src]++
	}

	g, cursor := newCSR(deg)
	rng = rand.New(rand.NewSource(seed))
	_ = rng.Perm(v) // replay the shuffle to realign the RNG stream
	for i := 0; i < e; i++ {
		src, dst := edge(rng)
		g.push(cursor, src, uint64(dst))
	}
	return g
}

// Symmetrize returns a graph with every edge duplicated in reverse, so
// directed scatter along its edges propagates information both ways
// (how undirected algorithms like connected components run on push
// frameworks). Two-pass streaming like the generators.
func Symmetrize(g *Graph) *Graph {
	deg := make([]uint64, g.V)
	for src := 0; src < g.V; src++ {
		for _, d := range g.Neigh(src) {
			deg[src]++
			deg[d]++
		}
	}
	out, cursor := newCSR(deg)
	for src := 0; src < g.V; src++ {
		for _, d := range g.Neigh(src) {
			out.push(cursor, src, d)
			out.push(cursor, int(d), uint64(src))
		}
	}
	return out
}

// EdgeStream is a lazily generated uniform graph for the `-full`
// paper-scale tier (uk-2002-class sizes, ≥100M edges): degrees and edge
// destinations are closed-form functions of the vertex/edge index, so no
// CSR arrays are ever materialized and memory stays O(1) regardless of
// edge count. Edges are spread evenly (deg = E/V, +1 for the first E%V
// vertices) with splitmix64-hashed destinations — the same
// no-community-structure worst case as GenUniform, without its RNG
// replay cost.
type EdgeStream struct {
	V, E int
	Seed uint64
}

// OutDegree returns vertex v's out-degree.
func (s EdgeStream) OutDegree(v int) int {
	d := s.E / s.V
	if v < s.E%s.V {
		d++
	}
	return d
}

// Offset returns the CSR offset of vertex v's first edge.
func (s EdgeStream) Offset(v int) uint64 {
	q, r := s.E/s.V, s.E%s.V
	if v < r {
		return uint64(v) * uint64(q+1)
	}
	return uint64(v)*uint64(q) + uint64(r)
}

// Dst returns the destination of global edge index i.
func (s EdgeStream) Dst(i uint64) uint64 {
	return splitmix64(s.Seed+i) % uint64(s.V)
}

// splitmix64 is the finalizer of the splitmix64 PRNG: a bijective
// avalanche over the edge index, so destinations are deterministic,
// uniform, and computable at any offset without replaying a stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// GraphMem is a graph laid out in simulated memory: 8-byte words for
// offsets, neighbor ids, and per-vertex data.
type GraphMem struct {
	G          *Graph
	Offsets    mem.Region
	Neighbors  mem.Region
	VertexData mem.Region
}

// Layout writes the graph into the simulated address space and backing
// store. Vertex data is allocated zeroed.
func (g *Graph) Layout(space *mem.Space, store *mem.Memory) *GraphMem {
	gm := &GraphMem{
		G:          g,
		Offsets:    space.Alloc("graph.offsets", uint64(g.V+1)*8),
		Neighbors:  space.Alloc("graph.neighbors", uint64(maxI(g.E, 1))*8),
		VertexData: space.Alloc("graph.vertexdata", uint64(g.V)*8),
	}
	for i, off := range g.Offsets {
		store.WriteU64(gm.Offsets.Word(uint64(i)), off)
	}
	for i, n := range g.Neighbors {
		store.WriteU64(gm.Neighbors.Word(uint64(i)), n)
	}
	return gm
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// OffsetAddr returns the address of vertex v's CSR offset.
func (gm *GraphMem) OffsetAddr(v int) mem.Addr { return gm.Offsets.Word(uint64(v)) }

// NeighborAddr returns the address of the i-th neighbor entry.
func (gm *GraphMem) NeighborAddr(i uint64) mem.Addr { return gm.Neighbors.Word(i) }

// VertexAddr returns the address of vertex v's data word.
func (gm *GraphMem) VertexAddr(v int) mem.Addr { return gm.VertexData.Word(uint64(v)) }
