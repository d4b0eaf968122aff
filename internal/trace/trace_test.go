package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, "x", "y", "z")
	tr.Emitf(1, "x", "y", "%d", 5)
	tr.Filter("a")
	if tr.Events() != nil || tr.Total() != 0 {
		t.Fatal("nil tracer recorded something")
	}
}

func TestRecordAndDump(t *testing.T) {
	tr := New(8)
	tr.Emit(10, "l2.0", "miss", "0x1000")
	tr.Emitf(20, "engine.0", "cb.onMiss", "addr=%#x", 0x1000)
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Cycle != 10 || events[1].Kind != "cb.onMiss" {
		t.Fatalf("events: %+v", events)
	}
	dump := tr.Dump()
	if !strings.Contains(dump, "cb.onMiss") || !strings.Contains(dump, "addr=0x1000") {
		t.Fatalf("dump:\n%s", dump)
	}
}

func TestRingWraps(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(uint64(i), "c", "k", "")
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d, want 4", len(events))
	}
	// Chronological: the last four cycles 6,7,8,9.
	for i, e := range events {
		if e.Cycle != uint64(6+i) {
			t.Fatalf("event %d cycle = %d", i, e.Cycle)
		}
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
}

func TestFilters(t *testing.T) {
	tr := New(16)
	tr.Filter("cb.*", "dram")
	tr.Emit(1, "e", "cb.onMiss", "")
	tr.Emit(2, "e", "cb.onWriteback", "")
	tr.Emit(3, "d", "dram", "")
	tr.Emit(4, "l2", "miss", "") // filtered out
	counts := tr.CountByKind()
	if counts["cb.onMiss"] != 1 || counts["cb.onWriteback"] != 1 || counts["dram"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if counts["miss"] != 0 {
		t.Fatal("filter leaked")
	}
}

// Property: the ring always returns min(total, capacity) events, in
// non-decreasing emit order.
func TestQuickRingInvariant(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw)%32 + 1
		tr := New(capacity)
		for i := 0; i < int(n); i++ {
			tr.Emit(uint64(i), "c", "k", "")
		}
		events := tr.Events()
		want := int(n)
		if want > capacity {
			want = capacity
		}
		if len(events) != want {
			return false
		}
		for i := 1; i < len(events); i++ {
			if events[i].Cycle != events[i-1].Cycle+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
