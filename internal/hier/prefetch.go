package hier

import "tako/internal/mem"

// notifyPrefetcher trains the tile's strided L2 prefetcher (Table 3) on
// a demand L2 miss and issues prefetches for confident streams.
//
// Prefetches of phantom ranges trigger onMiss callbacks ahead of the
// core — this is how täkō's HATS stream stays decoupled (§8.2): "while
// the core processes one part of the stream, the prefetcher triggers
// onMiss for subsequent edges."
func (h *Hierarchy) notifyPrefetcher(tileID int, a mem.Addr) {
	if h.cfg.PrefetchDegree <= 0 {
		return
	}
	t := h.tiles[tileID]
	la := a.Line()
	t.streamTick++

	// Match an existing stream whose next expected line is la.
	for i := range t.streams {
		s := &t.streams[i]
		if s.stride != 0 && s.lastLine+mem.Addr(s.stride) == la {
			s.lastLine = la
			s.lastUse = t.streamTick
			if s.confidence < 4 {
				s.confidence++
			}
			if s.confidence >= 2 {
				for d := 1; d <= h.cfg.PrefetchDegree; d++ {
					h.issuePrefetch(tileID, la+mem.Addr(int64(d)*s.stride))
				}
			}
			return
		}
	}
	// Train: a miss within 4 lines of a stream's last miss sets its
	// stride.
	for i := range t.streams {
		s := &t.streams[i]
		delta := int64(la) - int64(s.lastLine)
		if delta != 0 && delta >= -4*mem.LineSize && delta <= 4*mem.LineSize {
			s.stride = delta
			s.lastLine = la
			s.confidence = 1
			s.lastUse = t.streamTick
			return
		}
	}
	// Allocate a stream, replacing the least recently used.
	if len(t.streams) < h.cfg.PrefetchStreams {
		t.streams = append(t.streams, stream{lastLine: la, lastUse: t.streamTick})
		return
	}
	victim := 0
	for i := range t.streams {
		if t.streams[i].lastUse < t.streams[victim].lastUse {
			victim = i
		}
	}
	t.streams[victim] = stream{lastLine: la, lastUse: t.streamTick}
}

// issuePrefetch launches an asynchronous prefetch of la into the tile's
// L2, bounded by an in-flight limit and deduplicated against present and
// pending lines. No thread waits on a prefetch: its kindAccess
// transaction starts in this cycle, where a spawned proc would have
// started, and ends in txn.complete.
//
// A stream that runs past the end of the tile's own PRIVATE phantom
// region stops at another tile's: that Morph's onMiss would run on this
// tile's engine, whose view of the Morph the registering software never
// set up. A real-address PRIVATE Morph is left alone: its lines have
// backing data, and software may touch them from any tile.
func (h *Hierarchy) issuePrefetch(tileID int, la mem.Addr) {
	t := h.tiles[tileID]
	if t.prefetchInflight >= h.cfg.PrefetchDegree*2 {
		return
	}
	if t.l2.Contains(la) || t.pending.locked(la) {
		return
	}
	if h.registry != nil {
		if b, ok := h.registry.Binding(la); ok && b.Level == LevelPrivate && b.Phantom && b.Tile != tileID {
			return
		}
	}
	t.prefetchInflight++
	h.hot.prefetchIssued.Inc()
	h.K.AfterTask(0, h.newAccess(tileID, la, accessOpts{prefetch: true}))
}
