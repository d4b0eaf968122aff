package analytic

import (
	"fmt"
	"math"
)

// Geom describes one cache level's geometry for the analytical model.
type Geom struct {
	Sets int
	Ways int
}

// HitProb converts an LRU stack distance into a hit probability for a
// set-associative LRU cache:
//
//   - cold accesses never hit;
//   - d < Ways hits with certainty in any geometry (fewer intervening
//     distinct lines than ways means the line cannot have been evicted,
//     whichever sets the intervenors map to);
//   - a single set is exactly fully-associative LRU (hit iff d < Ways);
//   - otherwise each of the d intervening lines lands in the access's
//     set independently with probability 1/Sets (exact for hash-random
//     placement; see docs/performance.md for where this approximation
//     is honest and where it is not). The line survives iff fewer than
//     Ways intervenors landed in its set:
//     P(hit) = P(X ≤ Ways−1), X ~ Binomial(d, 1/Sets).
//     (Binomial, not its Poisson limit: the binomial's lower variance
//     matters right at the capacity knife edge, where the Poisson tail
//     visibly under-predicts hits.)
func (g Geom) HitProb(dist int, cold bool) float64 {
	if cold || g.Ways <= 0 {
		return 0
	}
	if dist < g.Ways {
		return 1
	}
	if g.Sets <= 1 {
		return 0
	}
	mean := float64(dist) / float64(g.Sets)
	if mean > float64(g.Ways)*4+64 {
		return 0 // tail is numerically zero
	}
	// P(X <= Ways-1) for X ~ Binomial(dist, 1/Sets), accumulated
	// iteratively from P(X=0) = (1-p)^dist.
	p := 1 / float64(g.Sets)
	odds := p / (1 - p)
	term := math.Exp(float64(dist) * math.Log1p(-p))
	sum := term
	for k := 1; k < g.Ways; k++ {
		term *= float64(dist-k+1) / float64(k) * odds
		sum += term
	}
	return sum
}

// Lines returns the capacity in lines.
func (g Geom) Lines() int { return g.Sets * g.Ways }

// Latencies are the per-level access costs used for the analytical
// latency estimate (mirrors hier.Config's tag+data latencies plus an
// average NoC + DRAM cost for the shared levels).
type Latencies struct {
	L1      float64
	L2      float64
	L3      float64
	Mem     float64
	TLBWalk float64
}

// Model accumulates expected per-level hit/miss counts from the
// collector's samples. Per-level counter semantics mirror the simulator
// exactly: L2 counters only see accesses that missed L1; L3 counters
// only see accesses that missed both private levels.
type Model struct {
	L3  Geom // shared, scored over the private-miss-filtered stream
	Lat Latencies

	acc      float64
	l1h      float64
	l2h, l2m float64
	l3h, l3m float64
	tlbm     float64
	lat      float64

	l3memo []float64 // HitProb cache by distance; -1 = not yet computed
}

// l3memoSize bounds the HitProb memo (512 KB); distances beyond it fall
// through to the direct evaluation, which for any realistic geometry is
// already in the cheap tail-is-zero regime.
const l3memoSize = 1 << 16

// l3HitProb memoizes Geom.HitProb for the shared level: Observe calls it
// once per private-miss access, distances repeat heavily, and each
// binomial-CDF evaluation costs an Exp/Log1p pair.
func (m *Model) l3HitProb(dist int, cold bool) float64 {
	if cold || dist >= l3memoSize {
		return m.L3.HitProb(dist, cold)
	}
	if m.l3memo == nil {
		m.l3memo = make([]float64, l3memoSize)
		for i := range m.l3memo {
			m.l3memo[i] = -1
		}
	}
	if p := m.l3memo[dist]; p >= 0 {
		return p
	}
	p := m.L3.HitProb(dist, false)
	m.l3memo[dist] = p
	return p
}

// Observe folds one access's sample into the expectations. The private
// levels and the dTLB are counted exactly: the collector's content
// filters reproduce the simulator's inclusive L1/L2 (including
// back-invalidation on L2 eviction), so an access hits L1 iff it did not
// reach L2, and hits L2 iff it did not reach L3. Only the shared L3 —
// whose banked global state the collector does not replicate — is
// probabilistic, scored by the binomial hit model over the
// private-miss-filtered stack distance.
func (m *Model) Observe(s Sample) {
	m.acc++
	lat := m.Lat.L1
	if !s.ReachL2 {
		m.l1h++
	} else {
		lat += m.Lat.L2
		if !s.ReachL3 {
			m.l2h++
		} else {
			m.l2m++
			p3 := m.l3HitProb(s.L3Dist, s.L3Cold)
			m.l3h += p3
			m.l3m += 1 - p3
			lat += m.Lat.L3 + (1-p3)*m.Lat.Mem
		}
	}

	if !s.TLBHit {
		m.tlbm++
		lat += m.Lat.TLBWalk
	}
	m.lat += lat
}

// Estimate is the analytical prediction for a stream of accesses.
type Estimate struct {
	Accesses uint64

	// Miss ratios per level, each over the accesses that reached that
	// level (matching the simulator's l1/l2/l3 hits and misses metrics).
	// TLBMiss is over all accesses.
	L1Miss  float64
	L2Miss  float64
	L3Miss  float64
	TLBMiss float64

	// L2Reach/L3Reach are the fractions of all accesses that reach each
	// level. A level's miss ratio is only meaningful when traffic
	// actually reaches it — validation harnesses use the reach to skip
	// untrafficked levels, whose ratios are quotients of near-zero
	// expectations.
	L2Reach float64
	L3Reach float64

	// AvgLat is the expected latency per access in cycles.
	AvgLat float64
}

// Estimate summarizes the accumulated expectations.
func (m *Model) Estimate() Estimate {
	e := Estimate{Accesses: uint64(m.acc)}
	if m.acc == 0 {
		return e
	}
	e.L1Miss = (m.acc - m.l1h) / m.acc
	if l2acc := m.l2h + m.l2m; l2acc > 0 {
		e.L2Miss = m.l2m / l2acc
		e.L2Reach = l2acc / m.acc
	}
	if l3acc := m.l3h + m.l3m; l3acc > 0 {
		e.L3Miss = m.l3m / l3acc
		e.L3Reach = l3acc / m.acc
	}
	e.TLBMiss = m.tlbm / m.acc
	e.AvgLat = m.lat / m.acc
	return e
}

func (e Estimate) String() string {
	return fmt.Sprintf("analytic.Estimate{acc:%d L1:%.4f L2:%.4f L3:%.4f TLB:%.4f lat:%.2f}",
		e.Accesses, e.L1Miss, e.L2Miss, e.L3Miss, e.TLBMiss, e.AvgLat)
}
