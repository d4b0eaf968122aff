package morphs

import (
	"testing"

	"tako/internal/system"
)

// TestRunCacheLivesOneWindow pins the run cache's lifetime: within one
// run window equal params hit, a run memoized in one window is simulated
// again in the next, and with no window armed every call simulates.
func TestRunCacheLivesOneWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultDecompParams()
	prm.NumValues, prm.NumIndices = 4096, 2048
	run := func() Result {
		t.Helper()
		r, err := RunDecompression(DecompTako, prm)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	system.StartCapture(system.CaptureConfig{})
	first, again := run(), run()
	system.StopCapture()
	if first.Cached {
		t.Error("first run in a window served from the cache")
	}
	if !again.Cached || again.Cycles != first.Cycles || again.Record != first.Record {
		t.Error("equal params in one window did not replay the memoized run")
	}

	system.StartCapture(system.CaptureConfig{})
	next := run()
	system.StopCapture()
	if next.Cached {
		t.Error("the next window replayed a run memoized in the previous one")
	}
	if next.Cycles != first.Cycles {
		t.Errorf("re-simulated run took %d cycles, first %d", next.Cycles, first.Cycles)
	}

	if r := run(); r.Cached || run().Cached {
		t.Error("a run with no window armed was served from a cache")
	}
}
