package noc

import (
	"testing"
	"testing/quick"

	"tako/internal/energy"
	"tako/internal/stats"
)

func TestDefaultConfig16Tiles(t *testing.T) {
	cfg := DefaultConfig(16)
	if cfg.Width != 4 || cfg.Height != 4 {
		t.Fatalf("16 tiles => %dx%d, want 4x4", cfg.Width, cfg.Height)
	}
	cfg = DefaultConfig(36)
	if cfg.Width != 6 || cfg.Height != 6 {
		t.Fatalf("36 tiles => %dx%d, want 6x6", cfg.Width, cfg.Height)
	}
	cfg = DefaultConfig(8)
	if cfg.Width*cfg.Height < 8 {
		t.Fatalf("8 tiles => %dx%d too small", cfg.Width, cfg.Height)
	}
}

func TestHopsManhattan(t *testing.T) {
	m := NewMesh(DefaultConfig(16), nil)
	// Tile 0 is (0,0); tile 15 is (3,3) in a 4x4 mesh.
	if h := m.Hops(0, 15); h != 6 {
		t.Fatalf("Hops(0,15) = %d, want 6", h)
	}
	if h := m.Hops(5, 5); h != 0 {
		t.Fatalf("Hops(self) = %d, want 0", h)
	}
	if m.Hops(0, 1) != 1 || m.Hops(0, 4) != 1 {
		t.Fatal("adjacent tiles should be 1 hop")
	}
}

func TestQuickHopsSymmetric(t *testing.T) {
	m := NewMesh(DefaultConfig(16), nil)
	f := func(a, b uint8) bool {
		from, to := int(a)%16, int(b)%16
		h := m.Hops(from, to)
		return h == m.Hops(to, from) && h >= 0 && h <= 6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlits(t *testing.T) {
	m := NewMesh(DefaultConfig(16), nil)
	cases := map[int]int{0: 1, 1: 1, 16: 1, 17: 2, 64: 4, 8: 1}
	for bytes, want := range cases {
		if got := m.Flits(bytes); got != want {
			t.Errorf("Flits(%d) = %d, want %d", bytes, got, want)
		}
	}
}

func TestLatency(t *testing.T) {
	m := NewMesh(DefaultConfig(16), nil)
	// 1 hop, 64B = 4 flits: head 3 cycles + 3 serialization = 6.
	if got := m.Latency(0, 1, 64); got != 6 {
		t.Fatalf("Latency(1 hop, 64B) = %d, want 6", got)
	}
	// Control message (8B = 1 flit), 6 hops: 6*3 = 18.
	if got := m.Latency(0, 15, 8); got != 18 {
		t.Fatalf("Latency(6 hops, 8B) = %d, want 18", got)
	}
	if got := m.Latency(7, 7, 64); got != 0 {
		t.Fatalf("same-tile latency = %d, want 0", got)
	}
}

func TestTransferAccountsEnergy(t *testing.T) {
	meter := energy.NewMeter()
	m := NewMesh(DefaultConfig(16), meter)
	reg := stats.NewRegistry()
	m.AttachMetrics(reg)
	m.Transfer(0, 15, 64) // 6 hops * 4 flits = 24 flit-hops
	if meter.Count(energy.NoCFlitHop) != 24 {
		t.Fatalf("flit-hop energy events = %d, want 24", meter.Count(energy.NoCFlitHop))
	}
	if tr, fh := reg.Get("noc.transfers"), reg.Get("noc.flithops"); tr != 1 || fh != 24 {
		t.Fatalf("metrics: noc.transfers=%d noc.flithops=%d, want 1 and 24", tr, fh)
	}
	// Same-tile transfer: no energy.
	m.Transfer(3, 3, 64)
	if meter.Count(energy.NoCFlitHop) != 24 {
		t.Fatal("same-tile transfer charged energy")
	}
}

func TestAverageHopsReasonable(t *testing.T) {
	m := NewMesh(DefaultConfig(16), nil)
	avg := m.AverageHops()
	// 4x4 mesh uniform traffic: average Manhattan distance is 2.5.
	if avg < 2.4 || avg > 2.6 {
		t.Fatalf("average hops = %v, want ~2.5", avg)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewMesh(DefaultConfig(16), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range tile")
		}
	}()
	m.Hops(0, 16)
}
