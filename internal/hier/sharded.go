package hier

import (
	"fmt"

	"tako/internal/cache"
	"tako/internal/dram"
	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/noc"
	"tako/internal/sim"
	"tako/internal/stats"
)

// This file is the message-passing form of the cross-tile protocol: the
// hierarchy hosted on a sim.Sharded engine, one tile per shard. Every
// cross-tile effect of the classic build — home-bank fetch service,
// directory invalidations and downgrades, upgrade recalls, writebacks,
// inclusive back-invalidations, DRAM reads and writes from remote tiles
// — becomes a mailbox message with a modeled mesh delay, so tiles
// advance in parallel under the conservative lookahead without ever
// touching another shard's state directly.
//
// Ownership discipline (who may touch what, from which shard):
//
//   - A tile's private caches, MSHRs, pending table, owned table, and
//     txn and request pools: that tile's shard only.
//   - A home tile's L3 bank, l3pending table, directory bank
//     (h.dirs[home]), and DRAM controllers (h.drams[home]): the home
//     shard only. Remote requesters reach them by RPC (homeReq).
//   - Shared counters (Metrics, Meter) are concurrent-safe atomics, so
//     totals are independent of the worker count. The mesh keeps no
//     state of its own; its transfers count into those two.
//
// Message ordering: each (src, dst) tile pair is a FIFO channel —
// sim.Shard stretches a send's delay past the last arrival already
// promised on that channel, and same-cycle arrivals keep their send
// order — which the protocol leans on in three places: a writeback
// Put lands at the home before the same tile's later invalidation reply
// (so merges are never reordered behind the response that copies the
// line), a write grant lands at a requester before a later revocation,
// and an upgrade denial lands after the invalidation that caused it was
// already processed — so the denied requester's retry misses cleanly
// instead of looping.

// homeReq is one cross-tile request message: a private miss (fetch), a
// remote memory operation, a non-temporal store, or an ownership
// upgrade, sent from the requesting tile's shard to the home shard,
// which runs it as a home-side transaction. The requester parks on done;
// the home completes it when the transaction unlocks (or, for fetches,
// when the data response is sent). Requests are pooled per requesting
// tile; the home reads every field it needs before completing done and
// never touches the request afterwards, so the requester may recycle it
// immediately after its own final read.
type homeReq struct {
	kind txnKind
	tile int // requesting tile
	a    mem.Addr
	o    accessOpts

	// RMO operands.
	op  RMOOp
	val uint64

	// NT-store payload, copied in so the caller's buffer never crosses
	// shards; fetch response payload travels back in data.
	ext  mem.Line
	data mem.Line

	// granted is the upgrade verdict: false means the requester's copy
	// was invalidated while the request was in flight, and it must retry.
	granted bool

	// done (requester-owned, pooled) is completed by the home to finish
	// the RPC. ack (home-owned, pooled) is set on fetch responses and
	// completed by the requester once its install finishes; the home
	// holds the home-line lock until then, which is what makes in-flight
	// response data impossible to revoke (see txn.stillGranted).
	done *sim.Future
	ack  *sim.Future
}

func (h *Hierarchy) getReq(t *tile) *homeReq {
	if n := len(t.reqs); n > 0 {
		r := t.reqs[n-1]
		t.reqs[n-1] = nil
		t.reqs = t.reqs[:n-1]
		return r
	}
	return &homeReq{}
}

func (h *Hierarchy) putReq(t *tile, r *homeReq) {
	*r = homeReq{}
	if len(t.reqs) < 64 {
		t.reqs = append(t.reqs, r)
	}
}

// invReply is one invalidation/downgrade/recall round trip: the home
// fills in the target tile and a fresh (unpooled — several are
// outstanding at once) future, the remote handler fills in the extracted
// data and completes the future with the reply's mesh delay.
type invReply struct {
	tile    int
	data    mem.Line
	dirty   bool
	present bool
	fut     *sim.Future
}

// waitInvals parks p until every reply in invs has landed.
func waitInvals(p *sim.Proc, invs []invReply) {
	for i := range invs {
		p.Wait(invs[i].fut)
	}
}

// invKind classifies the cross-tile invalidation-style messages. The
// accounting per kind mirrors the classic inline paths: the request leg
// is charged at the home, the reply leg at the remote tile, and the
// remote handler increments the same coherence counters the classic
// code incremented at the directory.
type invKind uint8

const (
	invFetchWrite invKind = iota // write fetch: invalidate a sharer copy
	invDowngrade                 // read fetch: downgrade the dirty owner
	invUpgrade                   // upgrade: recall a sharer copy
	invRMO                       // RMO: drop a sharer copy
	invNT                        // NT store: supersede a sharer copy
	invBack                      // L3 eviction: inclusive back-invalidation
)

// ---- requester side: RPCs to the home shard ----

// sendHomeReq ships req to home, where it runs as a home-side
// transaction on the home's own shard.
func (h *Hierarchy) sendHomeReq(t *tile, home int, lat sim.Cycle, req *homeReq) {
	hm := h.tiles[home]
	t.shard.Send(home, lat, func() {
		hm.K.Go(hm.homeNames[req.kind], func(p *sim.Proc) {
			h.runHomeTxn(p, hm, req)
		})
	})
}

// runHomeTxn drives one arrived request through the home-side state
// machine. The transaction is drawn from the home tile's pool and runs
// entirely on the home shard; req stays attached so the response steps
// (respondSharded, stepUnlock) can complete it.
func (h *Hierarchy) runHomeTxn(p *sim.Proc, hm *tile, req *homeReq) {
	x := h.getTxn(hm)
	x.h, x.p, x.kind = h, p, req.kind
	x.tileID, x.a, x.la, x.o = req.tile, req.a, req.a.Line(), req.o
	x.home, x.hm = hm.id, hm
	x.op, x.val = req.op, req.val
	if req.kind == kindHomeFetch {
		// Home-side span bookkeeping, mirroring fetchFromHome: the span
		// covers arrival to unlock and is re-labeled by the miss path.
		x.homeStart, x.spanKind = p.Now(), "l3.hit"
		x.tracing = h.tracer != nil
	}
	if req.kind == kindNTStore {
		x.ext = &req.ext
	}
	x.req = req
	x.run()
	h.putTxn(x)
}

// fetchFromHomeSharded is the message form of fetchFromHome: request out
// (the transfer charged at send, its latency the message delay), park on
// done, copy the response. The returned request is still live — the home
// is parked on its ack holding the home-line lock — and the caller
// (stepFill) completes the handshake with sendInstallAck after the
// install.
func (h *Hierarchy) fetchFromHomeSharded(p *sim.Proc, t *tile, a mem.Addr, o accessOpts, out *mem.Line) *homeReq {
	home := h.HomeTile(a)
	req := h.getReq(t)
	req.kind = kindHomeFetch
	req.tile = t.id
	req.a = a
	req.o = o
	req.done = t.K.GetFuture()
	h.sendHomeReq(t, home, h.Mesh.Transfer(t.id, home, 8), req)
	p.Wait(req.done)
	*out = req.data
	if o.write {
		// The home registered us as owner before responding; mirror the
		// grant in the tile-local permission view (hasExclusiveT).
		t.owned.Put(uint64(a.Line()), struct{}{})
	}
	return req
}

// sendInstallAck completes the fetch handshake after the private install:
// the home drops the L3 line's Locked bit and the home-line lock when the
// ack lands. Uncounted latency — the classic path has no such message.
func (h *Hierarchy) sendInstallAck(p *sim.Proc, t *tile, req *homeReq) {
	home := h.HomeTile(req.a)
	ack := req.ack
	h.putReq(t, req)
	t.shard.SendComplete(home, h.Mesh.Latency(t.id, home, 8), ack)
}

// upgradeSharded is the message form of upgrade. Request and completion
// are uncounted latency, matching the classic response sleep (which used
// Latency, not Transfer). A denial means the copy was invalidated while
// the request was in flight; the caller retries from Lookup and, because
// the invalidation was delivered on the home→tile FIFO ahead of the
// denial, the retry misses and fetches fresh data — no livelock.
func (h *Hierarchy) upgradeSharded(p *sim.Proc, tileID int, la mem.Addr) {
	t := h.tiles[tileID]
	home := h.HomeTile(la)
	req := h.getReq(t)
	req.kind = kindUpgrade
	req.tile = tileID
	req.a = la
	req.done = t.K.GetFuture()
	h.sendHomeReq(t, home, h.Mesh.Latency(tileID, home, 8), req)
	p.Wait(req.done)
	if req.granted {
		// Re-validate presence before recording ownership: the tile may
		// have evicted its last copy while the request was in flight (a
		// concurrent access's victim selection). That eviction's Put was
		// sent after this request, so it lands at the home after the
		// grant and undoes it (applyPut clears the sharer bit and
		// owner); recording ownership here would leave a stale owned
		// bit with no copy and no directory entry behind it. The caller
		// retries from Lookup either way, so a declined grant just
		// becomes a fresh write miss.
		still := false
		for _, c := range t.privateCaches() {
			if c.Contains(la) {
				still = true
				break
			}
		}
		if still {
			t.owned.Put(uint64(la), struct{}{})
		}
	}
	h.putReq(t, req)
}

// ntStoreSharded is the message form of StoreLineNT: the full-line
// transfer is charged at send (the classic path charged it in
// stepRespond) and the payload travels in the request.
func (h *Hierarchy) ntStoreSharded(p *sim.Proc, tileID int, a mem.Addr, line *mem.Line) {
	t := h.tiles[tileID]
	home := h.HomeTile(a)
	req := h.getReq(t)
	req.kind = kindNTStore
	req.tile = tileID
	req.a = a
	req.ext = *line
	req.done = t.K.GetFuture()
	h.sendHomeReq(t, home, h.Mesh.Transfer(tileID, home, mem.LineSize), req)
	p.Wait(req.done)
	h.putReq(t, req)
}

// rmoSharded is the message form of runRMO: address + operand out
// (16 bytes, as classic), commit at the home, completion back.
func (h *Hierarchy) rmoSharded(p *sim.Proc, tileID int, a mem.Addr, op RMOOp, delta uint64) {
	t := h.tiles[tileID]
	home := h.HomeTile(a)
	req := h.getReq(t)
	req.kind = kindRMO
	req.tile = tileID
	req.a = a
	req.op, req.val = op, delta
	req.done = t.K.GetFuture()
	h.sendHomeReq(t, home, h.Mesh.Transfer(tileID, home, 16), req)
	p.Wait(req.done)
	h.putReq(t, req)
}

// ---- invalidation round trips (home → remote tile → home) ----

// sendInval dispatches one invalidation-style message to tile s. The
// request leg's transfer is charged here (classic charged it at the
// directory); NT supersedes charge nothing, as classic charged nothing.
// The reply leg is charged by the remote handler, which knows whether a
// copy was present.
func (h *Hierarchy) sendInval(hm *tile, s int, la mem.Addr, kind invKind, r *invReply) {
	r.tile = s
	r.fut = sim.NewFuture(hm.K)
	var out sim.Cycle
	if kind == invNT {
		out = h.Mesh.Latency(hm.id, s, 8)
	} else {
		out = h.Mesh.Transfer(hm.id, s, 8)
	}
	st := h.tiles[s]
	home := hm.id
	hm.shard.Send(s, out, func() {
		h.applyInval(st, home, la, kind, r)
	})
}

// applyInval is the remote tile's handler: extract (or downgrade) the
// local copies at event level — it never blocks — fill the reply, and
// complete it back to the home with the reply leg's delay. Counter
// increments mirror the classic directory loops exactly: invalidations
// count only when a copy was present, downgrades are counted at the home
// (which knows it is recalling the owner), back-invalidations count into
// l3.backinval.
func (h *Hierarchy) applyInval(st *tile, home int, la mem.Addr, kind invKind, r *invReply) {
	if kind == invDowngrade {
		data, dirty := h.downgradeOwner(st.id, la)
		st.owned.Delete(uint64(la))
		r.data, r.dirty, r.present = data, dirty, true
		st.shard.SendComplete(home, h.Mesh.Transfer(st.id, home, mem.LineSize), r.fut)
		return
	}
	data, dirty, present := h.invalidatePrivate(st.id, la)
	st.owned.Delete(uint64(la))
	r.data, r.dirty, r.present = data, dirty, present
	var back sim.Cycle
	switch kind {
	case invFetchWrite, invUpgrade:
		if present {
			h.hot.cohInvalidations.Inc()
			back = h.Mesh.Transfer(st.id, home, 8)
		} else {
			back = h.Mesh.Latency(st.id, home, 8)
		}
	case invRMO:
		// Classic charged the request leg only; the reply is uncounted
		// latency (but, unlike classic, a real wait — see
		// docs/performance.md on timing divergence).
		if present {
			h.hot.cohInvalidations.Inc()
		}
		back = h.Mesh.Latency(st.id, home, 8)
	case invNT:
		back = h.Mesh.Latency(st.id, home, 8)
	case invBack:
		if present {
			h.hot.l3Backinval.Inc()
			bytes := 8
			if dirty {
				bytes = mem.LineSize
			}
			back = h.Mesh.Transfer(st.id, home, bytes)
		} else {
			back = h.Mesh.Latency(st.id, home, 8)
		}
	}
	st.shard.SendComplete(home, back, r.fut)
}

// ---- home-side directory actions (txn steps) ----

// dirActionSharded is the message form of dirAction, running on the home
// shard under the home-line lock: write fetches invalidate every other
// sharer, read fetches downgrade a dirty owner, and dirty data recovered
// from the replies merges into ls3 (or memory, when the fill bypassed).
// Directory pointers are re-fetched after every wait — writeback Puts
// land as home events mid-park and may move or delete the entry — and
// new sharers cannot appear while we park because every fetch of this
// line queues on the lock we hold.
func (t *txn) dirActionSharded(ls3 *cache.LineState) (merged *mem.Line) {
	h := t.h
	e := h.dirOf(t.la)
	if t.o.write {
		mask := e.sharers
		t.invs = t.invs[:0]
		for s := 0; s < h.cfg.Tiles; s++ {
			if s != t.tileID && mask&(1<<uint(s)) != 0 {
				t.invs = append(t.invs, invReply{})
			}
		}
		// Second pass sends: the slice is fully grown, so the reply
		// pointers handed to sendInval stay stable.
		i := 0
		for s := 0; s < h.cfg.Tiles; s++ {
			if s != t.tileID && mask&(1<<uint(s)) != 0 {
				h.sendInval(t.hm, s, t.la, invFetchWrite, &t.invs[i])
				i++
			}
		}
		waitInvals(t.p, t.invs)
		for i := range t.invs {
			if r := &t.invs[i]; r.present && r.dirty {
				merged = h.applyDirtyMerge(ls3, t.la, r.data, "")
			}
		}
		e = h.dirOf(t.la)
		for s := 0; s < h.cfg.Tiles; s++ {
			if s != t.tileID && mask&(1<<uint(s)) != 0 {
				e.remove(s)
			}
		}
		e.add(t.tileID)
		e.owner = t.tileID
	} else {
		if owner := e.owner; owner >= 0 && owner != t.tileID {
			h.hot.cohDowngrades.Inc()
			t.invs = t.invs[:0]
			t.invs = append(t.invs, invReply{})
			h.sendInval(t.hm, owner, t.la, invDowngrade, &t.invs[0])
			waitInvals(t.p, t.invs)
			if r := &t.invs[0]; r.dirty {
				merged = h.applyDirtyMerge(ls3, t.la, r.data, "")
			}
			e = h.dirOf(t.la)
			e.owner = -1
		}
		e.add(t.tileID)
	}
	h.event("dirAction")
	return merged
}

// rmoDirActionSharded drops every private copy ahead of an RMO commit,
// merging dirty data into the home copy (or the transaction buffer when
// the fill bypassed), then deletes the directory entry — nil-tolerantly,
// since a Put landing mid-park may already have drained it.
func (t *txn) rmoDirActionSharded() {
	h := t.h
	if !t.bypass {
		t.ls3.Locked = true
	}
	e := h.dirT(t.la).get(t.la)
	if e == nil {
		return
	}
	mask := e.sharers
	t.invs = t.invs[:0]
	for s := 0; s < h.cfg.Tiles; s++ {
		if mask&(1<<uint(s)) != 0 {
			t.invs = append(t.invs, invReply{})
		}
	}
	i := 0
	for s := 0; s < h.cfg.Tiles; s++ {
		if mask&(1<<uint(s)) != 0 {
			h.sendInval(t.hm, s, t.la, invRMO, &t.invs[i])
			i++
		}
	}
	waitInvals(t.p, t.invs)
	for i := range t.invs {
		if r := &t.invs[i]; r.present && r.dirty {
			if t.bypass {
				t.data = r.data
			} else {
				t.ls3.Data = r.data
			}
		}
	}
	if e := h.dirT(t.la).get(t.la); e != nil {
		h.dirT(t.la).delete(t.la)
	}
}

// ntDirActionSharded supersedes every private copy ahead of an NT store;
// extracted data is deliberately dropped (the store overwrites the whole
// line), matching the classic supersede.
func (t *txn) ntDirActionSharded() {
	h := t.h
	e := h.dirT(t.la).get(t.la)
	if e == nil {
		return
	}
	mask := e.sharers
	t.invs = t.invs[:0]
	for s := 0; s < h.cfg.Tiles; s++ {
		if mask&(1<<uint(s)) != 0 {
			t.invs = append(t.invs, invReply{})
		}
	}
	i := 0
	for s := 0; s < h.cfg.Tiles; s++ {
		if mask&(1<<uint(s)) != 0 {
			h.sendInval(t.hm, s, t.la, invNT, &t.invs[i])
			i++
		}
	}
	waitInvals(t.p, t.invs)
	if e := h.dirT(t.la).get(t.la); e != nil {
		h.dirT(t.la).delete(t.la)
	}
}

// upgradeDirSharded is kindUpgrade's directory action under message
// passing. Unlike classic, a requester whose sharer bit vanished while
// the request was in flight is denied rather than silently granted: the
// invalidation that removed the bit was delivered to the requester on
// the home→tile FIFO before this denial, so its retry re-fetches instead
// of dirtying a dropped line. All paths exit through Unlock (the legal
// edge DirAction→Unlock); the completion message back to the requester
// is sent by stepUnlock.
func (t *txn) upgradeDirSharded() {
	h := t.h
	e := h.dirT(t.la).get(t.la)
	if e == nil || !e.has(t.tileID) {
		t.req.granted = false
		t.to(txnUnlock)
		return
	}
	if e.owner == t.tileID {
		t.req.granted = true
		t.to(txnUnlock)
		return
	}
	if e.sharers == 1<<uint(t.tileID) {
		e.owner = t.tileID // sole sharer: silent upgrade
		t.req.granted = true
		t.to(txnUnlock)
		return
	}
	h.hot.cohUpgrades.Inc()
	mask := e.sharers
	t.invs = t.invs[:0]
	for s := 0; s < h.cfg.Tiles; s++ {
		if s != t.tileID && mask&(1<<uint(s)) != 0 {
			t.invs = append(t.invs, invReply{})
		}
	}
	i := 0
	for s := 0; s < h.cfg.Tiles; s++ {
		if s != t.tileID && mask&(1<<uint(s)) != 0 {
			h.sendInval(t.hm, s, t.la, invUpgrade, &t.invs[i])
			i++
		}
	}
	waitInvals(t.p, t.invs)
	for i := range t.invs {
		if r := &t.invs[i]; r.present && r.dirty {
			// Mirror the classic upgrade merge exactly: dirty recalled
			// data lands in the home L3 copy (inclusion guarantees one).
			if ls3 := t.hm.l3.Lookup(t.la); ls3 != nil {
				ls3.Data = r.data
				ls3.Dirty = true
			}
		}
	}
	e = h.dirOf(t.la)
	for s := 0; s < h.cfg.Tiles; s++ {
		if s != t.tileID && mask&(1<<uint(s)) != 0 {
			e.remove(s)
		}
	}
	e.add(t.tileID)
	e.owner = t.tileID
	t.req.granted = true
	h.event("upgrade")
	t.to(txnUnlock)
}

// respondSharded sends a fetch's data response and parks until the
// requester acks its install; the home-line lock (and the L3 line's
// Locked bit) is held across the park, which is what replaces the
// classic revoke-and-retry validation. NT stores are a no-op here: their
// line transfer was charged at request send, and their completion is
// sent by stepUnlock.
func (t *txn) respondSharded() {
	h := t.h
	if t.kind != kindHomeFetch {
		return
	}
	req := t.req
	t.req = nil
	if !t.bypass {
		t.data = t.ls3.Data
	}
	req.data = t.data
	ack := t.hm.K.GetFuture()
	req.ack = ack
	t.hm.shard.SendComplete(req.tile, h.Mesh.Transfer(t.home, req.tile, mem.LineSize), req.done)
	t.p.Wait(ack)
	if !t.bypass {
		t.ls3.Locked = false
	}
}

// ---- writeback Puts (tile → home, non-blocking at both ends) ----

// sendPutDirty ships a dirty private writeback to the home shard. The
// local owner view clears unconditionally, matching the classic
// writebackToShared owner-clear; drop reports whether the domain still
// caches the line (the home then also clears the sharer bit). The
// message delay is the uncounted line transfer — the tile-side wb-timing
// proc charges the classic path's one counted transfer plus writeback
// buffer occupancy.
func (h *Hierarchy) sendPutDirty(t *tile, la mem.Addr, data *mem.Line) {
	home := h.HomeTile(la)
	drop := true
	for _, c := range t.privateCaches() {
		if c.Contains(la) {
			drop = false
			break
		}
	}
	t.owned.Delete(uint64(la))
	hm := h.tiles[home]
	line := *data
	t.shard.Send(home, h.Mesh.Latency(t.id, home, mem.LineSize), func() {
		h.applyPut(hm, t.id, la, &line, true, drop)
	})
}

// sendPutClean drops this tile from la's sharer set at the home after
// the last clean copy left the private domain (the message form of
// removeSharerIfNoCopies).
func (h *Hierarchy) sendPutClean(t *tile, la mem.Addr) {
	home := h.HomeTile(la)
	t.owned.Delete(uint64(la))
	hm := h.tiles[home]
	t.shard.Send(home, h.Mesh.Latency(t.id, home, 8), func() {
		h.applyPut(hm, t.id, la, nil, false, true)
	})
}

// applyPut is the home's Put handler, at event level (never blocks, so
// it is safe while home-side transactions are parked mid-wait on the
// same line): merge dirty data into the L3 copy or straight to DRAM
// (never inserting — an insert could evict, which needs a proc), clear
// ownership, and drop the sharer bit when the sender's domain emptied.
func (h *Hierarchy) applyPut(hm *tile, tileID int, la mem.Addr, data *mem.Line, dirty, drop bool) {
	if dirty {
		if ls3 := hm.l3.Lookup(la); ls3 != nil {
			ls3.Data = *data
			ls3.Dirty = true
		} else {
			h.dramAt(hm.id).WriteLineNoWait(la, data)
		}
	}
	e := h.dirT(la).get(la)
	if e == nil {
		return
	}
	if e.owner == tileID {
		e.owner = -1
	}
	if drop {
		e.remove(tileID)
		if e.empty() {
			h.dirT(la).delete(la)
		}
	}
}

// ---- inclusive back-invalidation on L3 eviction ----

func (t *tile) getInvs() []invReply {
	if n := len(t.invPool); n > 0 {
		s := t.invPool[n-1]
		t.invPool[n-1] = nil
		t.invPool = t.invPool[:n-1]
		return s[:0]
	}
	return nil
}

func (t *tile) putInvs(s []invReply) {
	if len(t.invPool) < 8 {
		t.invPool = append(t.invPool, s[:0])
	}
}

// backInvalSharded recalls every private copy of an evicted L3 line with
// real message round trips. Because the recalls park p, the eviction is
// no longer atomic the way the classic one is, and two orderings must be
// pinned down:
//
//   - A concurrent fetch of the victim must not read DRAM before the
//     dirty data lands there. The victim's home-line lock is free by
//     construction (victim selection excludes busy lines, and selection
//     and this lock happen in one event), so we take it for the duration
//     and any fetch queues behind it.
//
//   - Dirty data must reach DRAM newest-last. The evicted copy is
//     written before the recalls go out; a sharer that evicted its own
//     dirty copy mid-flight sent a Put that lands (FIFO) before its
//     recall reply, and the reply then finds no copy; a sharer still
//     holding a dirty copy returns it in the reply, written last. At
//     most one domain holds dirty data, so the final write is the newest.
func (h *Hierarchy) backInvalSharded(p *sim.Proc, homeID int, ev *cache.LineState) {
	la := ev.Tag
	hm := h.tiles[homeID]
	var b Binding
	morph := false
	if ev.Morph && h.registry != nil {
		b, morph = h.registry.Binding(homeID, la)
	}
	if ev.Phantom && !morph {
		panic(fmt.Sprintf("hier: phantom line %v in L3 with no Morph bound", la))
	}
	e := h.dirT(la).get(la)
	if e == nil {
		if morph {
			h.morphEvictShared(homeID, *ev, b, nil)
			return
		}
		if ev.Dirty {
			h.hot.l3Writebacks.Inc()
			h.dramAt(homeID).WriteLineNoWait(la, &ev.Data)
		}
		return
	}
	tok := hm.l3pending.lock(la)
	anyDirty := false
	if ev.Dirty && !morph {
		h.hot.l3Writebacks.Inc()
		h.dramAt(homeID).WriteLineNoWait(la, &ev.Data)
	}
	mask := e.sharers
	invs := hm.getInvs()
	for s := 0; s < h.cfg.Tiles; s++ {
		if mask&(1<<uint(s)) != 0 {
			invs = append(invs, invReply{})
		}
	}
	i := 0
	for s := 0; s < h.cfg.Tiles; s++ {
		if mask&(1<<uint(s)) != 0 {
			h.sendInval(hm, s, la, invBack, &invs[i])
			i++
		}
	}
	waitInvals(p, invs)
	for i := range invs {
		if r := &invs[i]; r.present && r.dirty {
			if morph {
				// A recalled dirty copy is newer than the evicted L3 data;
				// hand it to the callback (and the non-phantom writeback
				// inside morphEvictShared) instead of DRAM directly.
				ev.Data = r.data
				ev.Dirty = true
				continue
			}
			if !ev.Dirty && !anyDirty {
				h.hot.l3Writebacks.Inc()
			}
			anyDirty = true
			h.dramAt(homeID).WriteLineNoWait(la, &r.data)
		}
	}
	if e := h.dirT(la).get(la); e != nil {
		h.dirT(la).delete(la)
	}
	hm.putInvs(invs)
	if morph {
		// Spawn the callback before releasing the home-line lock so its
		// proc queues first: a racing fetch cannot re-materialize the line
		// (and accept stores) ahead of the eviction/writeback callback.
		h.morphEvictShared(homeID, *ev, b, nil)
	}
	h.completeLock(hm.K, hm.l3pending.mustUnlock(la, tok))
}

// ---- construction and lifecycle ----

// NewSharded builds a hierarchy hosted on a sim.Sharded engine, one tile
// per shard. täkō machines are fully supported: the registry must be
// partitioned per tile (hier.Registry's tile parameter selects the
// shard-local view) and the runner must schedule each callback on its
// tile's own shard kernel (engine.NewSharded does). The verification
// hooks that peek at remote state mid-epoch (fresh checks) are rejected
// in favor of epoch-barrier invariant checking (InstallBarrierChecks).
func NewSharded(eng *sim.Sharded, cfg Config, meter *energy.Meter, registry Registry, runner Runner) *Hierarchy {
	if cfg.Tiles <= 0 {
		panic("hier: need at least one tile")
	}
	if eng.Shards() != cfg.Tiles {
		panic(fmt.Sprintf("hier: sharded build needs one shard per tile (%d shards, %d tiles)",
			eng.Shards(), cfg.Tiles))
	}
	if cfg.FreshChecks {
		panic("hier: -sharded with -verify fresh checks is unsupported (per-access freshness assertions read " +
			"remote tiles mid-epoch); drop -sharded, or use SelfCheckEvery (epoch-barrier invariant checks) instead")
	}
	newPolicy := cfg.NewPolicy
	if newPolicy == nil {
		newPolicy = func() cache.Policy { return cache.NewTRRIP() }
	}
	meter.SetConcurrent()
	mesh := noc.NewMesh(cfg.NoC, meter)
	if mesh.MinCrossTileLatency() < 1 {
		panic("hier: sharded build needs RouterDelay+LinkDelay ≥ 1 (zero cross-tile latency leaves no lookahead)")
	}
	if eng.Lookahead() > mesh.MinCrossTileLatency() {
		panic(fmt.Sprintf("hier: engine lookahead %d exceeds minimum cross-tile latency %d; messages would violate it",
			eng.Lookahead(), mesh.MinCrossTileLatency()))
	}
	store := mem.NewMemory()
	store.SetConcurrent()
	reg := stats.NewRegistry()
	reg.SetConcurrent()
	h := &Hierarchy{
		K:        nil, // every path must use a tile kernel or the running proc's
		Mesh:     mesh,
		Meter:    meter,
		cfg:      cfg,
		registry: registry,
		runner:   runner,
		Metrics:  reg,
		comp:     newComponentNames(cfg.Tiles),
		sharded:  true,
		eng:      eng,
	}
	h.hot.resolve(reg)
	if cfg.Attribution {
		// The dwell/total histograms are commutative atomics; the SlowestK
		// ring is kept per tile (tile.slow) and merged deterministically in
		// SlowestAccesses, so both arms work sharded.
		h.attr = newTxnAttr(reg, cfg.SlowestK)
	}
	h.Mesh.AttachMetrics(reg)
	h.prefetchFn = func(p *sim.Proc, a0, a1 uint64) {
		h.access(p, int(a0), mem.Addr(a1), accessOpts{prefetch: true})
		h.tiles[a0].prefetchInflight--
	}
	h.wbTimingFn = func(p *sim.Proc, a0, a1 uint64) {
		t := h.tiles[a0]
		t.wbbuf.Acquire(p)
		p.Sleep(h.Mesh.Transfer(int(a0), int(a1), mem.LineSize))
		t.wbbuf.Release()
	}
	// One directory bank and one DRAM controller set per home tile, each
	// owned by (and only touched from) that home's shard; the DRAM
	// controllers share one concurrent backing memory.
	h.dirs = make([]dirTable, cfg.Tiles)
	dirProbes := reg.Histogram("dir.probe.len")
	for i := range h.dirs {
		h.dirs[i].tbl.SetProbeStats(dirProbes)
	}
	h.drams = make([]*dram.DRAM, cfg.Tiles)
	for i := range h.drams {
		d := dram.New(eng.Shard(i).K, cfg.DRAM, store, meter)
		d.AttachMetrics(reg, stats.L("home", i))
		h.drams[i] = d
	}
	h.DRAM = h.drams[0] // alias so Store() and friends keep working
	mshrProbes := reg.Histogram("mshr.probe.len")
	homeProbes := reg.Histogram("mshr.home.probe.len")
	bankShift := log2(cfg.Tiles)
	for i := 0; i < cfg.Tiles; i++ {
		t := h.buildTile(eng.Shard(i).K, i, newPolicy, mshrProbes, homeProbes, bankShift)
		t.shard = eng.Shard(i)
		for k := 0; k < nTxnKinds; k++ {
			t.homeNames[k] = fmt.Sprintf("%s@%d", txnKind(k), i)
		}
		h.tiles = append(h.tiles, t)
	}
	if cfg.SelfCheckEvery > 0 {
		// Inline event-driven self-checks would walk tiles another shard
		// is mutating; check at epoch barriers instead, every N barriers.
		h.InstallBarrierChecks(uint64(cfg.SelfCheckEvery))
	}
	return h
}

// InstallBarrierChecks arms the full invariant checker at the engine's
// epoch barriers (every everyN-th barrier), the only points in a
// parallel run where every shard is parked and cross-shard state is
// quiescent. Panics on violation with the barrier count for replay.
func (h *Hierarchy) InstallBarrierChecks(everyN uint64) {
	if !h.sharded {
		panic("hier: InstallBarrierChecks requires a sharded hierarchy")
	}
	if everyN == 0 {
		everyN = 1
	}
	var n uint64
	h.eng.SetBarrierHook(func() {
		n++
		if n%everyN != 0 {
			return
		}
		if err := h.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("hier: invariant violated at epoch barrier %d: %v", n, err))
		}
	})
}

// FinishStats folds per-tile statistics into the hierarchy-wide views
// after a run quiesces: demand-load latencies recorded per tile (shard)
// merge into LoadLat via the parallel-variance merge. Harmless to call
// on a classic build (the per-tile distributions stay empty).
func (h *Hierarchy) FinishStats() {
	for _, t := range h.tiles {
		h.LoadLat.Merge(&t.loadLat)
		t.loadLat = stats.Dist{}
	}
	if h.tracer != nil && h.tracers != nil {
		// Fold the per-shard trace forks into the attached tracer in
		// canonical (cycle, shard, emit-order) order.
		h.tracer.Merge(h.tracers)
	}
}
