package hier

// Transaction lifecycle states. Every coherence-relevant operation on
// the access path — demand/prefetch/engine accesses, home-bank fetch
// service, remote memory operations, non-temporal stores, and ownership
// upgrades — runs as a txn stepping through these states under a single
// transition function (txn.advance). The legal transitions per
// transaction kind are enumerated in txnLegal below; txn.to asserts
// every transition against that table, so an interleaving that drives
// the machine somewhere unexpected fails loudly instead of silently
// corrupting coherence state. docs/coherence.md renders the same table
// as the state diagram.
type txnState uint8

// Lifecycle states. Private-side states (Lookup..Validate) run on the
// requesting tile; home-side states (HomeLocked..Respond) run under the
// home bank's line lock. Commit/Unlock/Done are shared by both sides.
const (
	txnIdle       txnState = iota // pooled, not attached to an operation
	txnLookup                     // wait out pending-line locks; every retry re-enters here
	txnL1Probe                    // top-level (core or engine L1d) probe
	txnSibSnoop                   // intra-tile sibling L1d migration (clustered coherence)
	txnL2Probe                    // private L2 probe
	txnMissAlloc                  // MSHR + pending-line lock acquisition for a private miss
	txnFetch                      // obtain the line: PRIVATE Morph onMiss or a home-side fetch txn
	txnCbPending                  // a Morph onMiss callback owns the line buffer; waiting on the engine
	txnFill                       // install into private caches (insertL2 + fillTop)
	txnValidate                   // post-install dirStillGrants re-check (in-flight revocation)
	txnHomeLocked                 // acquire the home-bank line lock (incl. request transfer)
	txnHomeProbe                  // L3 tag (and data) probe under the home lock
	txnHomeFetch                  // materialize the line: DRAM read and/or SHARED Morph fill
	txnHomeFill                   // insertL3 (retried while every candidate way is busy)
	txnDirAction                  // directory work: invalidations, downgrades, supersede, upgrade
	txnRespond                    // response/transfer latency back to the requester
	txnCommit                     // apply the architectural effect and finalize the result
	txnUnlock                     // release the home-bank line lock
	txnDone                       // finished; result (if any) is valid

	nTxnStates = int(txnDone) + 1
)

var txnStateNames = [nTxnStates]string{
	"Idle", "Lookup", "L1Probe", "SibSnoop", "L2Probe", "MissAlloc",
	"Fetch", "CbPending", "Fill", "Validate", "HomeLocked", "HomeProbe",
	"HomeFetch", "HomeFill", "DirAction", "Respond", "Commit", "Unlock",
	"Done",
}

func (s txnState) String() string {
	if int(s) < nTxnStates {
		return txnStateNames[s]
	}
	return "?"
}

// txnKind identifies which operation a transaction performs; the legal
// state graph is per kind.
type txnKind uint8

// Transaction kinds.
const (
	kindAccess    txnKind = iota // core/engine/prefetch private-domain access
	kindHomeFetch                // home-bank service of a private miss
	kindRMO                      // remote memory operation at the home bank
	kindNTStore                  // non-temporal full-line store (supersede)
	kindUpgrade                  // write-permission upgrade through the directory

	nTxnKinds = int(kindUpgrade) + 1
)

var txnKindNames = [nTxnKinds]string{
	"access", "home-fetch", "rmo", "nt-store", "upgrade",
}

func (k txnKind) String() string {
	if int(k) < nTxnKinds {
		return txnKindNames[k]
	}
	return "?"
}

// stateMask is a bitset over txnState values.
type stateMask uint32

func maskOf(states ...txnState) stateMask {
	var m stateMask
	for _, s := range states {
		m |= 1 << s
	}
	return m
}

// txnLegal[kind][state] is the set of states the machine may enter next.
// This is the transition table from docs/coherence.md; txn.to enforces
// it on every transition, and the interleaving explorer leans on it to
// catch schedules that drive an access down an impossible path.
var txnLegal = func() [nTxnKinds][nTxnStates]stateMask {
	var t [nTxnKinds][nTxnStates]stateMask

	// Demand / engine / prefetch access (private side). Lookup is the
	// universal retry target: lock contention, upgrade races, lost
	// ownership, and revoked fills all re-enter there.
	a := &t[kindAccess]
	a[txnIdle] = maskOf(txnLookup)
	a[txnLookup] = maskOf(txnLookup, txnL1Probe, txnL2Probe)
	a[txnL1Probe] = maskOf(txnLookup, txnSibSnoop, txnL2Probe, txnCommit)
	a[txnSibSnoop] = maskOf(txnLookup)
	a[txnL2Probe] = maskOf(txnLookup, txnMissAlloc, txnCommit)
	a[txnMissAlloc] = maskOf(txnLookup, txnFetch)
	a[txnFetch] = maskOf(txnCbPending, txnFill)
	a[txnCbPending] = maskOf(txnFill)
	a[txnFill] = maskOf(txnValidate)
	a[txnValidate] = maskOf(txnLookup, txnCommit)
	a[txnCommit] = maskOf(txnLookup, txnDone)

	// Home-bank fetch service (runs under the home line lock).
	f := &t[kindHomeFetch]
	f[txnIdle] = maskOf(txnHomeLocked)
	f[txnHomeLocked] = maskOf(txnHomeProbe)
	f[txnHomeProbe] = maskOf(txnHomeFetch, txnDirAction)
	f[txnHomeFetch] = maskOf(txnCbPending, txnHomeFill)
	f[txnCbPending] = maskOf(txnHomeFill)
	f[txnHomeFill] = maskOf(txnDirAction)
	f[txnDirAction] = maskOf(txnRespond)
	f[txnRespond] = maskOf(txnUnlock)
	f[txnUnlock] = maskOf(txnDone)

	// Remote memory operation: same home-side shape, but the directory
	// action drops every private copy and the commit applies the
	// operator at the home copy.
	r := &t[kindRMO]
	r[txnIdle] = maskOf(txnHomeLocked)
	r[txnHomeLocked] = maskOf(txnHomeProbe)
	r[txnHomeProbe] = maskOf(txnHomeFetch, txnDirAction)
	r[txnHomeFetch] = maskOf(txnCbPending, txnHomeFill)
	r[txnCbPending] = maskOf(txnHomeFill)
	r[txnHomeFill] = maskOf(txnDirAction)
	r[txnDirAction] = maskOf(txnCommit)
	r[txnCommit] = maskOf(txnUnlock)
	r[txnUnlock] = maskOf(txnDone)

	// Non-temporal store: supersede all copies under the home lock,
	// write the home level, charge the transfer, unlock.
	n := &t[kindNTStore]
	n[txnIdle] = maskOf(txnHomeLocked)
	n[txnHomeLocked] = maskOf(txnDirAction)
	n[txnDirAction] = maskOf(txnCommit)
	n[txnCommit] = maskOf(txnRespond)
	n[txnRespond] = maskOf(txnUnlock)
	n[txnUnlock] = maskOf(txnDone)

	// Ownership upgrade: directory invalidations under the home lock.
	// Fast paths (untracked line, already owner, silent upgrade) skip
	// straight to Unlock.
	u := &t[kindUpgrade]
	u[txnIdle] = maskOf(txnHomeLocked)
	u[txnHomeLocked] = maskOf(txnDirAction)
	u[txnDirAction] = maskOf(txnRespond, txnUnlock)
	u[txnRespond] = maskOf(txnUnlock)
	u[txnUnlock] = maskOf(txnDone)

	return t
}()

// txnCountTable is the transaction coverage table: observed transitions
// per (kind, from, to).
type txnCountTable [nTxnKinds][nTxnStates][nTxnStates]uint64

// TxnTransition is one observed state-machine edge with its hit count;
// the coverage table is exposed for tests, the explorer, and reports.
type TxnTransition struct {
	Kind     string
	From, To string
	Count    uint64
}

// TxnStateOrder returns the state names in machine order (Idle first,
// Done last), for reports that render states as columns.
func TxnStateOrder() []string {
	out := make([]string, nTxnStates)
	copy(out, txnStateNames[:])
	return out
}

// TxnKindOrder returns the transaction kind names in machine order.
func TxnKindOrder() []string {
	out := make([]string, nTxnKinds)
	copy(out, txnKindNames[:])
	return out
}

// LegalEdges enumerates every edge the txnLegal table permits, in
// deterministic (kind, from, to) order with zero counts — the universe
// that TxnCoverage results are a subset of.
func LegalEdges() []TxnTransition {
	var out []TxnTransition
	for k := 0; k < nTxnKinds; k++ {
		for from := 0; from < nTxnStates; from++ {
			for to := 0; to < nTxnStates; to++ {
				if txnLegal[k][from]&(1<<to) != 0 {
					out = append(out, TxnTransition{
						Kind: txnKind(k).String(),
						From: txnState(from).String(),
						To:   txnState(to).String(),
					})
				}
			}
		}
	}
	return out
}

// UnvisitedEdges returns the legal edges absent from observed (counts
// ignored), in LegalEdges order — the state-machine paths a run or run
// set never exercised. takosim -verify prints them so coverage holes in
// the coherence machine are visible, not just violations.
func UnvisitedEdges(observed []TxnTransition) []TxnTransition {
	seen := make(map[TxnTransition]bool, len(observed))
	for _, e := range observed {
		e.Count = 0
		seen[e] = true
	}
	var out []TxnTransition
	for _, e := range LegalEdges() {
		if !seen[e] {
			out = append(out, e)
		}
	}
	return out
}

// TxnCoverage returns every state transition observed on this hierarchy
// since construction, in deterministic (kind, from, to) order.
func (h *Hierarchy) TxnCoverage() []TxnTransition {
	var out []TxnTransition
	for k := 0; k < nTxnKinds; k++ {
		for from := 0; from < nTxnStates; from++ {
			for to := 0; to < nTxnStates; to++ {
				if c := h.txnCounts[k][from][to]; c > 0 {
					out = append(out, TxnTransition{
						Kind:  txnKind(k).String(),
						From:  txnState(from).String(),
						To:    txnState(to).String(),
						Count: c,
					})
				}
			}
		}
	}
	return out
}
