package morphs

import (
	"testing"

	"tako/internal/system"
)

// TestRunCacheKeysOnOptions pins that the run cache keys on the
// process-wide system.Options: a run cached on the classic engine is not
// replayed once -sharded is armed, and equal options still hit.
func TestRunCacheKeysOnOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prev := SetRunCache(true)
	ResetRunCache()
	defer func() {
		SetRunCache(prev)
		ResetRunCache()
	}()
	defer system.SetOptions(system.SetOptions(system.Options{}))

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

	classic := run()
	if classic.Cached {
		t.Fatal("first run served from an empty cache")
	}
	system.SetDefaultSharded(true, 1)
	sharded := run()
	if sharded.Cached {
		t.Fatal("-sharded replayed the run cached on the classic engine")
	}
	if sharded.Cycles == classic.Cycles {
		t.Fatalf("sharded run took the classic run's %d cycles", classic.Cycles)
	}
	again := run()
	if !again.Cached || again.Cycles != sharded.Cycles {
		t.Fatalf("equal options missed the cache: cached=%v, %d cycles, want %d",
			again.Cached, again.Cycles, sharded.Cycles)
	}
}
