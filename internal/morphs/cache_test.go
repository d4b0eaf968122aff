package morphs

import (
	"testing"

	"tako/internal/system"
)

// TestRunCacheKeysOnOptions pins that the run cache keys on the
// process-wide system.Options: a run cached without attribution is not
// replayed once -attr is armed, and equal options still hit.
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

	if first := run(); first.Cached {
		t.Fatal("first run served from an empty cache")
	}
	system.SetOptions(system.Options{Attribution: true})
	if armed := run(); armed.Cached {
		t.Fatal("-attr replayed the run cached without attribution")
	}
	if again := run(); !again.Cached {
		t.Fatal("equal options missed the cache")
	}
}
