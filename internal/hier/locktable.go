package hier

import (
	"fmt"

	"tako/internal/flat"
	"tako/internal/mem"
	"tako/internal/sim"
)

// lockTable serializes per-line operations (in-flight fills, callback
// locks, home-bank operations). It replaces the map[mem.Addr]*sim.Future
// design with an open-addressed table of inline entries and two hot-path
// refinements that keep behavior identical:
//
//   - Futures are created lazily, on the first waiter. The uncontended
//     lock/unlock cycle — the overwhelmingly common case — allocates
//     nothing. Waiters are registered on the entry's future in arrival
//     order and woken at the unlock cycle, exactly as when the future
//     was created eagerly at lock time.
//
//   - Locks are identified by a sequence token instead of future
//     pointer equality, so the conditional-release idiom ("delete only
//     if the entry is still mine") ports directly.
type lockTable struct {
	k    *sim.Kernel
	name string // diagnostic identity, e.g. "pending@3" or "home@3"
	tbl  flat.Table[lockEntry]
	seq  uint64
}

// lockEntry is one held line lock: the identifying token and the future
// waiters block on (nil until someone waits).
type lockEntry struct {
	seq uint64
	fut *sim.Future
}

func (lt *lockTable) init(k *sim.Kernel, name string) {
	lt.k = k
	lt.name = name
}

// locked reports whether la is currently locked.
func (lt *lockTable) locked(la mem.Addr) bool {
	return lt.tbl.Ref(uint64(la)) != nil
}

// waitOn returns the future that completes when la's current lock
// releases, or nil when la is not locked. Waiters loop: the lock may be
// retaken before they run again.
func (lt *lockTable) waitOn(la mem.Addr) *sim.Future {
	e := lt.tbl.Ref(uint64(la))
	if e == nil {
		return nil
	}
	if e.fut == nil {
		// Lazily materialized only when contention actually happens, and
		// pool-originated: the unlocker completes it via completeLock,
		// which recycles it — no reference survives the wake.
		e.fut = lt.k.GetFuture()
	}
	return e.fut
}

// lock takes la's lock (which must be free — callers drain waiters with
// waitOn first) and returns the token that releases it. Taking an
// already-held lock is a protocol bug, not a race to tolerate: the
// holder's unlock would silently miss and strand its waiters.
func (lt *lockTable) lock(la mem.Addr) uint64 {
	if e := lt.tbl.Ref(uint64(la)); e != nil {
		panic(fmt.Sprintf(
			"hier: %s: lock of line %v at cycle %d, but token %d already holds it",
			lt.name, la, lt.k.Now(), e.seq))
	}
	return lt.lockWith(la, nil)
}

// lockWith takes la's lock, storing fut as the future waiters block on
// (nil defers creation to the first waiter). An existing entry is
// overwritten — the callback-lock paths replace an in-flight fill's
// entry deliberately, matching the map's assignment semantics.
func (lt *lockTable) lockWith(la mem.Addr, fut *sim.Future) uint64 {
	lt.seq++
	lt.tbl.Put(uint64(la), lockEntry{seq: lt.seq, fut: fut})
	return lt.seq
}

// unlock releases la's lock if tok still identifies it, returning the
// entry's future — which the caller must Complete to wake waiters —
// or nil when no waiter ever materialized (or the lock was overwritten).
// Use mustUnlock on paths where the lock cannot legitimately have been
// replaced; this tolerant form is for the conditional-release idiom
// ("delete only if the entry is still mine") on the private pending
// table, whose fill entries callback locks deliberately supersede.
func (lt *lockTable) unlock(la mem.Addr, tok uint64) *sim.Future {
	e := lt.tbl.Ref(uint64(la))
	if e == nil || e.seq != tok {
		return nil
	}
	fut := e.fut
	lt.tbl.Delete(uint64(la))
	return fut
}

// mustUnlock is unlock for locks that are never superseded (the home
// tables): a missing entry or token mismatch means two operations
// believed they owned the same line, so it panics with enough context —
// table, line, cycle, both tokens — to reconstruct the interleaving.
func (lt *lockTable) mustUnlock(la mem.Addr, tok uint64) *sim.Future {
	e := lt.tbl.Ref(uint64(la))
	if e == nil {
		panic(fmt.Sprintf(
			"hier: %s: unlock of line %v with token %d at cycle %d, but the line is not locked",
			lt.name, la, tok, lt.k.Now()))
	}
	if e.seq != tok {
		panic(fmt.Sprintf(
			"hier: %s: unlock of line %v with token %d at cycle %d, but token %d holds the lock (lock was retaken or clobbered)",
			lt.name, la, tok, lt.k.Now(), e.seq))
	}
	fut := e.fut
	lt.tbl.Delete(uint64(la))
	return fut
}

// dirTable is the coherence directory: line address → inline dirEntry,
// open-addressed. Entries are created on first touch and deleted when
// their sharer set drains, so the table churns with every eviction —
// tombstone-free deletion keeps that free.
type dirTable struct {
	tbl flat.Table[dirEntry]
}

// get returns la's entry, or nil if untracked. The pointer is
// invalidated by the next directory insert or delete (table growth and
// backward-shift deletion move entries); callers finish with it before
// the next create/delete, and the access paths do.
func (d *dirTable) get(la mem.Addr) *dirEntry {
	return d.tbl.Ref(uint64(la))
}

// getOrCreate returns la's entry, creating an ownerless one if needed.
// Same pointer-validity rule as get.
func (d *dirTable) getOrCreate(la mem.Addr) *dirEntry {
	e, _ := d.tbl.GetOrPut(uint64(la), dirEntry{owner: -1})
	return e
}

// delete removes la's entry.
func (d *dirTable) delete(la mem.Addr) {
	d.tbl.Delete(uint64(la))
}

// forEach visits every entry (deterministic slot order). fn must not
// mutate the directory.
func (d *dirTable) forEach(fn func(la mem.Addr, e *dirEntry) bool) {
	d.tbl.Range(func(key uint64, e *dirEntry) bool {
		return fn(mem.Addr(key), e)
	})
}
