package cache

// Policy is a cache replacement policy over one set. Victim is called
// with a filter of allowed ways and must return one of the allowed ways,
// or -1 when none is allowed.
type Policy interface {
	Name() string
	// OnInsert updates replacement state for a newly filled way.
	// engineFill marks fills issued by a täkō engine rather than a
	// core (trrîp demotes those).
	OnInsert(set []LineState, way int, engineFill bool)
	// OnHit updates replacement state for a demand hit.
	OnHit(set []LineState, way int)
	// Victim selects an allowed way to evict. allowed is pure, and it
	// can be costly (it may probe a lock table or walk Morph hints), so
	// policies ask it only about ways their own state makes candidates.
	Victim(set []LineState, allowed func(way int) bool) int
}

// LRU is least-recently-used replacement using global timestamps.
type LRU struct{}

// NewLRU returns an LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// OnInsert implements Policy (timestamps are set by the Cache).
func (*LRU) OnInsert(set []LineState, way int, engineFill bool) {}

// OnHit implements Policy.
func (*LRU) OnHit(set []LineState, way int) {}

// Victim implements Policy: the allowed way with the oldest timestamp.
// It asks allowed only about a way older than the best allowed one so
// far.
func (*LRU) Victim(set []LineState, allowed func(int) bool) int {
	best := -1
	for i := range set {
		if (best == -1 || set[i].LRU < set[best].LRU) && allowed(i) {
			best = i
		}
	}
	return best
}

// RRIP re-reference interval prediction constants (2-bit SRRIP, [62]).
const (
	rrpvMax      = 3 // distant re-reference
	rrpvLong     = 2 // long re-reference (insertion)
	rrpvNear     = 0 // near re-reference (promotion on hit)
	rrpvHitPromo = rrpvNear
)

// RRIP is 2-bit static RRIP: insert at long (2), promote to near (0) on
// hit, evict distant (3), aging when no distant line exists.
type RRIP struct {
	// InsertEngineDistant enables trrîp's pollution avoidance: fills
	// issued by engines insert at distant (3) so data touched only by
	// callbacks is evicted first (§5.2).
	InsertEngineDistant bool
	name                string
}

// NewRRIP returns plain SRRIP (engine fills treated like core fills).
func NewRRIP() *RRIP { return &RRIP{name: "rrip"} }

// NewTRRIP returns trrîp: RRIP with engine fills inserted at distant
// priority. The per-set callback-free-victim invariant, trrîp's other
// half, is enforced by the Cache insert path for any policy.
func NewTRRIP() *RRIP { return &RRIP{InsertEngineDistant: true, name: "trrip"} }

// Name implements Policy.
func (r *RRIP) Name() string { return r.name }

// OnInsert implements Policy.
func (r *RRIP) OnInsert(set []LineState, way int, engineFill bool) {
	if engineFill && r.InsertEngineDistant {
		set[way].RRPV = rrpvMax
	} else {
		set[way].RRPV = rrpvLong
	}
}

// OnHit implements Policy.
func (r *RRIP) OnHit(set []LineState, way int) {
	set[way].RRPV = rrpvHitPromo
	// A demand hit by a core rescues an engine-filled line from the
	// pollution fast path.
	set[way].EngineFill = false
}

// Victim implements Policy: the first allowed way at distant RRPV, after
// aging every allowed way, one step a round, until one is distant. Ties
// break toward the lower way.
//
// Rounds of aging add one to every allowed way until an allowed way
// reaches distant, so the victim is the first allowed way at the highest
// RRPV any allowed way holds, and every allowed way ages by that RRPV's
// distance from distant. Victim finds that RRPV by scanning down from
// distant, reading each way's RRPV before it asks allowed: a way above
// the level being scanned is known not to be allowed, so allowed is asked
// at most once a way, and only about distant ways when one of them is
// allowed.
func (r *RRIP) Victim(set []LineState, allowed func(int) bool) int {
	for i := range set {
		if set[i].RRPV >= rrpvMax && allowed(i) {
			return i
		}
	}
	for lvl := uint8(rrpvMax - 1); ; lvl-- {
		for i := range set {
			if set[i].RRPV == lvl && allowed(i) {
				r.age(set, allowed, i, lvl)
				return i
			}
		}
		if lvl == 0 {
			return -1
		}
	}
}

// age applies the aging rounds that make victim, at RRPV lvl, distant:
// every allowed way ages by rrpvMax-lvl. The ways above lvl, and those at
// lvl before victim, are known not to be allowed.
func (*RRIP) age(set []LineState, allowed func(int) bool, victim int, lvl uint8) {
	d := rrpvMax - lvl
	set[victim].RRPV = rrpvMax
	for i := range set {
		if v := set[i].RRPV; (v < lvl || v == lvl && i > victim) && allowed(i) {
			set[i].RRPV = v + d
		}
	}
}
