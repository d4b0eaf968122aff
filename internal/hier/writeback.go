package hier

import (
	"tako/internal/mem"
	"tako/internal/sim"
)

// The eviction side's hardware activity: writeback timing and the
// bookkeeping around Morph eviction callbacks. No thread waits on
// either, so each runs as a chain of kernel continuations
// (Kernel.AfterTask, Future.Then, Semaphore.AcquireThen) on a pooled
// object, a sim.Task with no issuer, started in the cycle of the
// eviction. Every wait queues the object where a proc's wake would have
// been queued, so the schedule is the one a spawned proc would have had.

// wbTiming charges a private writeback's timing: it holds an entry of
// the tile's writeback buffer for the line's transfer to its home bank.
// The writeback's functional effects were applied at once
// (writebackToShared).
type wbTiming struct {
	h          *Hierarchy
	tile, home int
	phase      uint8
}

// Issuer makes a wbTiming a sim.Task no proc waits on.
func (w *wbTiming) Issuer() *sim.Proc { return nil }

// getWBTiming returns a pooled writeback timing, phase 0.
func (h *Hierarchy) getWBTiming() *wbTiming {
	if n := len(h.wbPool); n > 0 {
		w := h.wbPool[n-1]
		h.wbPool = h.wbPool[:n-1]
		return w
	}
	return &wbTiming{h: h}
}

// Resume takes a writeback-buffer entry, holds it for the transfer and
// frees it.
func (w *wbTiming) Resume() {
	h, t := w.h, w.h.tiles[w.tile]
	switch w.phase {
	case 0:
		w.phase = 1
		if !t.wbbuf.AcquireThen(w) {
			return
		}
		fallthrough
	case 1:
		w.phase = 2
		h.K.AfterTask(h.Mesh.Transfer(w.tile, w.home, mem.LineSize), w)
	default:
		t.wbbuf.Release()
		w.phase = 0
		h.wbPool = append(h.wbPool, w)
	}
}

// evictCB runs a Morph's onEviction or onWriteback callback for a line
// leaving a private L2 or an L3 bank (morphEvict), and keeps its books:
// a writeback-buffer entry until the engine accepts the callback, the
// line's lock (pending, or the home line's for an L3 bank) until it
// finishes, and its place in the tile's cbInflight count, which
// flushData waits on, until it has released that lock. The evicted line
// lives in data, which the callback reads through its engine, until
// then.
type evictCB struct {
	h      *Hierarchy
	tile   int  // the private L2's tile, or the L3 bank's
	shared bool // an L3 bank's eviction
	kind   CallbackKind
	b      Binding
	la     mem.Addr
	// lock completes when the callback is done; it is pooled, and
	// completeLock recycles it.
	lock   *sim.Future
	tok    uint64
	locked bool // the line's lock is held; an L3 eviction may have found it busy
	data   mem.Line
	// The runner's futures, recycled once the callback is done.
	accepted, done *sim.Future
	phase          uint8
}

// Issuer makes an evictCB a sim.Task no proc waits on.
func (c *evictCB) Issuer() *sim.Proc { return nil }

// getEvictCB returns a pooled, zeroed eviction callback.
func (h *Hierarchy) getEvictCB() *evictCB {
	if n := len(h.evictPool); n > 0 {
		c := h.evictPool[n-1]
		h.evictPool = h.evictPool[:n-1]
		return c
	}
	return &evictCB{h: h}
}

// Resume steps through the callback: phase 0 takes the line's lock if the
// eviction could not (an L3 eviction found a home-side operation holding
// it, and queues politely behind it rather than clobbering its lock) and
// a writeback-buffer entry, 1 hands the callback to the engine, 2 frees
// the entry once the engine accepted it, and 3 releases the line once
// the callback is done.
func (c *evictCB) Resume() {
	h, t := c.h, c.h.tiles[c.tile]
	switch c.phase {
	case 0:
		if !c.locked {
			if f := t.l3pending.waitOn(c.la); f != nil {
				f.Then(c)
				return
			}
			c.tok, c.locked = t.l3pending.lockWith(c.la, c.lock), true
		}
		c.phase = 1
		if !t.wbbuf.AcquireThen(c) {
			return
		}
		fallthrough
	case 1:
		c.accepted, c.done = h.runner.Run(c.tile, c.kind, c.b, c.la, &c.data)
		c.phase = 2
		if !c.accepted.Done() {
			c.accepted.Then(c)
			return
		}
		fallthrough
	case 2:
		t.wbbuf.Release()
		c.phase = 3
		if !c.done.Done() {
			c.done.Then(c)
			return
		}
		fallthrough
	default:
		if c.shared {
			t.l3pending.mustUnlock(c.la, c.tok)
		} else {
			t.pending.unlock(c.la, c.tok)
		}
		h.completeLock(c.lock)
		h.K.RecycleFuture(c.accepted)
		h.K.RecycleFuture(c.done)
		t.cbInflight.Done()
		*c = evictCB{h: h}
		h.evictPool = append(h.evictPool, c)
	}
}
