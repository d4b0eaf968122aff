package hier

import (
	"tako/internal/mem"
	"tako/internal/sim"
)

// FlushRegion implements flushData (§4.4): walk the tag arrays at the
// given level, evict every line in the region — triggering onWriteback
// or onEviction for Morph lines — and block until all callbacks
// complete, guaranteeing no further racing writes from callbacks.
//
// PRIVATE flushes walk tileID's L2; SHARED flushes walk every L3 bank.
func (h *Hierarchy) FlushRegion(p *sim.Proc, tileID int, region mem.Region, level Level) {
	if h.sharded {
		h.flushSharded(p, tileID, region, level)
		return
	}
	h.TraceAt(tileID, "flush", "flush.start", region.String())
	var futs []*sim.Future
	switch level {
	case LevelPrivate:
		h.flushPrivate(p, tileID, region, &futs)
	case LevelShared:
		for t := 0; t < h.cfg.Tiles; t++ {
			h.flushBank(p, t, region, &futs)
		}
	default:
		h.flushPrivate(p, tileID, region, &futs)
		for t := 0; t < h.cfg.Tiles; t++ {
			h.flushBank(p, t, region, &futs)
		}
	}
	p.WaitAll(futs...)
	// Callbacks triggered by evictions *before* this flush must also
	// complete: flushData guarantees no further racing writes from any
	// callback (§4.4).
	for _, t := range h.tiles {
		t.cbInflight.Wait(p)
	}
	h.event("flush")
	h.TraceAt(tileID, "flush", "flush.done", region.String())
}

// flushSharded distributes the flush across shards: the private walk
// runs on tileID's shard and each L3 bank walk runs on its home's shard,
// shipped there as flush messages on the ordered channels. Each leg
// drains its own eviction futures and its tile's in-flight callbacks
// before acking the origin, so the classic guarantee — no further racing
// callback writes once FlushRegion returns — holds shard-locally and, by
// the barrier on the acks, globally.
func (h *Hierarchy) flushSharded(p *sim.Proc, tileID int, region mem.Region, level Level) {
	// All channels and ack futures anchor on the *calling* proc's shard,
	// which need not be tileID's (a thread may flush a SHARED Morph
	// registered anywhere).
	origin := h.eng.ShardOf(p.Kernel())
	t := h.tiles[origin]
	h.TraceAt(origin, "flush", "flush.start", region.String())
	// Several acks are outstanding at once; pooled futures recycle on
	// completion, so these must be unpooled.
	var acks []*sim.Future
	spawn := func(dst int, name string, body func(q *sim.Proc)) {
		ack := sim.NewFuture(t.K)
		acks = append(acks, ack)
		dt := h.tiles[dst]
		run := func() {
			dt.K.Go(name, func(q *sim.Proc) {
				body(q)
				if dst == origin {
					ack.Complete()
				} else {
					dt.shard.SendComplete(origin, h.Mesh.Latency(dst, origin, 8), ack)
				}
			})
		}
		if dst == origin {
			run()
		} else {
			t.shard.Send(dst, h.Mesh.Latency(origin, dst, 8), run)
		}
	}
	if level != LevelShared {
		spawn(tileID, "flush-private", func(q *sim.Proc) {
			var futs []*sim.Future
			h.flushPrivate(q, tileID, region, &futs)
			q.WaitAll(futs...)
			h.tiles[tileID].cbInflight.Wait(q)
		})
	}
	if level != LevelPrivate {
		for bank := 0; bank < h.cfg.Tiles; bank++ {
			bank := bank
			spawn(bank, "flush-bank", func(q *sim.Proc) {
				var futs []*sim.Future
				h.flushBank(q, bank, region, &futs)
				q.WaitAll(futs...)
				h.tiles[bank].cbInflight.Wait(q)
			})
		}
	}
	p.WaitAll(acks...)
	h.event("flush")
	h.TraceAt(origin, "flush", "flush.done", region.String())
}

// flushPrivate evicts region's lines from one tile's private domain. On
// a sharded build the calling proc must run on tileID's shard.
func (h *Hierarchy) flushPrivate(p *sim.Proc, tileID int, region mem.Region, futs *[]*sim.Future) {
	t := h.tiles[tileID]
	// Tag-walk cost: the controller checks four tags per cycle.
	p.Sleep(sim.Cycle(t.l2.NumSets()/4 + 1))
	for {
		lines := t.l2.LinesInRegion(region)
		if len(lines) == 0 {
			break
		}
		progressed := false
		for _, la := range lines {
			// Each line is evicted by a kindFlushEvict transaction: one
			// lock check (a locked line is skipped this pass), extract,
			// and the eviction pipeline.
			x := h.getTxn(t)
			x.h, x.p, x.kind = h, p, kindFlushEvict
			x.tileID, x.la = tileID, la
			x.t = t
			x.futs = futs
			x.run()
			if x.evicted {
				progressed = true
			}
			h.putTxn(x)
		}
		if !progressed {
			p.Sleep(1)
		}
	}
	// Lines cached above the L2 but inside the region: engine lines
	// fetched around the L2 (shared-callback path) live only in the
	// engine L1d, so their dirty data must reach the shared level.
	for _, c := range t.privateCaches() {
		for _, la := range c.LinesInRegion(region) {
			if ls, ok := c.ExtractLine(la); ok {
				if ls.Dirty {
					h.writebackToShared(tileID, la, ls.Data)
				} else {
					h.removeSharerIfNoCopies(tileID, la)
				}
			}
		}
	}
}

// flushBank evicts region's lines from one L3 bank. On a sharded build
// the calling proc must run on the bank's shard.
func (h *Hierarchy) flushBank(p *sim.Proc, bankID int, region mem.Region, futs *[]*sim.Future) {
	hm := h.tiles[bankID]
	p.Sleep(sim.Cycle(hm.l3.NumSets()/4 + 1))
	for {
		lines := hm.l3.LinesInRegion(region)
		if len(lines) == 0 {
			break
		}
		progressed := false
		for _, la := range lines {
			x := h.getTxn(hm)
			x.h, x.p, x.kind = h, p, kindFlushEvict
			x.flushBank = true
			x.tileID, x.la = bankID, la
			x.home, x.hm = bankID, hm
			x.futs = futs
			x.run()
			if x.evicted {
				progressed = true
			}
			h.putTxn(x)
		}
		if !progressed {
			p.Sleep(1)
		}
	}
}

// InvalidateRegion drops region's lines from every cache without
// callbacks or writebacks; used when registering a Morph over existing
// data so stale copies cannot bypass the new semantics (§4.1: "when a
// Morph is registered or unregistered, its address range is flushed").
// Dirty lines are written back to memory first to preserve their data.
func (h *Hierarchy) InvalidateRegion(p *sim.Proc, region mem.Region) {
	if h.sharded {
		h.invalidateSharded(p, region)
		return
	}
	for _, t := range h.tiles {
		for _, c := range t.privateCaches() {
			for _, la := range c.LinesInRegion(region) {
				if ls, ok := c.ExtractLine(la); ok && ls.Dirty {
					h.DRAM.WriteLineNoWait(la, &ls.Data)
				}
			}
		}
		for _, la := range t.l3.LinesInRegion(region) {
			if ls, ok := t.l3.ExtractLine(la); ok {
				h.dirT(la).delete(la)
				if ls.Dirty {
					h.DRAM.WriteLineNoWait(la, &ls.Data)
				}
			}
		}
		p.Sleep(sim.Cycle(t.l3.NumSets()))
	}
}

// invalidateSharded is InvalidateRegion as a two-phase message exchange.
//
// Phase 1 extracts every private copy tile by tile, clearing the local
// ownership views; dirty lines ride back to the origin inside the acks
// (the tile→origin FIFO delivers each data closure strictly before its
// ack completion, so by the ack barrier every dirty line is in hand).
// Phase 2 purges each home bank's L3 slice and directory entries on the
// bank's own shard, then applies the phase-1 private dirty data for that
// bank's lines to DRAM last — private data is newer than any L3 copy.
// Racing accesses to a region being (un)registered are a workload bug,
// exactly as on the classic build, so the purge takes no line locks.
func (h *Hierarchy) invalidateSharded(p *sim.Proc, region mem.Region) {
	origin := h.eng.ShardOf(p.Kernel())
	t := h.tiles[origin]
	type extracted struct {
		la   mem.Addr
		data mem.Line
	}
	extract := func(st *tile) []extracted {
		var out []extracted
		for _, c := range st.privateCaches() {
			for _, la := range c.LinesInRegion(region) {
				if ls, ok := c.ExtractLine(la); ok {
					st.owned.Delete(uint64(la))
					if ls.Dirty {
						out = append(out, extracted{la, ls.Data})
					}
				}
			}
		}
		return out
	}
	dirty := make([][]extracted, h.cfg.Tiles)
	var acks []*sim.Future // several outstanding at once: unpooled
	for s := 0; s < h.cfg.Tiles; s++ {
		if s == origin {
			dirty[s] = extract(t)
			continue
		}
		s, st := s, h.tiles[s]
		ack := sim.NewFuture(t.K)
		acks = append(acks, ack)
		t.shard.Send(s, h.Mesh.Latency(origin, s, 8), func() {
			d := extract(st)
			st.shard.Send(origin, h.Mesh.Latency(s, origin, mem.LineSize), func() {
				dirty[s] = d
			})
			st.shard.SendComplete(origin, h.Mesh.Latency(s, origin, 8), ack)
		})
	}
	p.WaitAll(acks...)
	// Group the recovered dirty lines by home bank, in (tile, extraction)
	// order so the phase-2 message contents are deterministic.
	perHome := make([][]extracted, h.cfg.Tiles)
	for s := 0; s < h.cfg.Tiles; s++ {
		for _, ex := range dirty[s] {
			home := h.HomeTile(ex.la)
			perHome[home] = append(perHome[home], ex)
		}
	}
	purge := func(q *sim.Proc, hm *tile, lines []extracted) {
		q.Sleep(sim.Cycle(hm.l3.NumSets()))
		for _, la := range hm.l3.LinesInRegion(region) {
			if ls, ok := hm.l3.ExtractLine(la); ok {
				h.dirT(la).delete(la)
				if ls.Dirty {
					h.dramAt(hm.id).WriteLineNoWait(la, &ls.Data)
				}
			}
		}
		// Phase-1 private data last: at most one domain held each line
		// dirty, and its copy supersedes whatever the L3 held.
		for i := range lines {
			h.dramAt(hm.id).WriteLineNoWait(lines[i].la, &lines[i].data)
		}
	}
	acks = acks[:0]
	for s := 0; s < h.cfg.Tiles; s++ {
		if s == origin {
			purge(p, t, perHome[s])
			continue
		}
		st, lines := h.tiles[s], perHome[s]
		ack := sim.NewFuture(t.K)
		acks = append(acks, ack)
		t.shard.Send(s, h.Mesh.Latency(origin, s, mem.LineSize), func() {
			st.K.Go("inval-region", func(q *sim.Proc) {
				purge(q, st, lines)
				st.shard.SendComplete(origin, h.Mesh.Latency(s, origin, 8), ack)
			})
		})
	}
	p.WaitAll(acks...)
}
