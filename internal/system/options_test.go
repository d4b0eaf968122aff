package system

import (
	"strings"
	"testing"
)

func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		bad  string // substring of the error; empty means accepted
	}{
		{"zero", Options{}, ""},
		{"sharded", Options{Sharded: true, ShardWorkers: 4}, ""},
		{"sharded+verify+attr", Options{Sharded: true, Verify: true, Attribution: true, SlowestK: 5}, ""},
		{"shard-workers without sharded", Options{ShardWorkers: 2}, ""},
		{"negative shard-workers", Options{Sharded: true, ShardWorkers: -1}, "-shard-workers"},
		{"negative slowest", Options{Attribution: true, SlowestK: -3}, "-slowest"},
	} {
		err := tc.o.Validate()
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.bad != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.bad != "" && !strings.Contains(err.Error(), tc.bad):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.bad)
		}
	}
}

// TestOptionsApplyWhereMachinesAreBuilt pins where each Options field
// reaches: New applies the engine, Build only the observability fields,
// and a Config that asks for fast-forward keeps the classic kernel.
func TestOptionsApplyWhereMachinesAreBuilt(t *testing.T) {
	defer SetOptions(SetOptions(Options{Sharded: true, ShardWorkers: 2, Verify: true, Attribution: true, SlowestK: 3}))

	if s := New(Scaled(2, 16)); s.Sh == nil {
		t.Error("New ignored Options.Sharded")
	} else if c := s.H.Config(); c.FreshChecks || c.SelfCheckEvery != verifyCheckEvery || !c.Attribution || c.SlowestK != 3 {
		t.Errorf("sharded New: hier config %+v, want no fresh checks, self-check every %d, attribution with K=3",
			c, verifyCheckEvery)
	}

	s := Build(Scaled(2, 16))
	if s.Sh != nil {
		t.Error("Build applied Options.Sharded")
	}
	if c := s.H.Config(); !c.FreshChecks || c.SelfCheckEvery != verifyCheckEvery || !c.Attribution || c.SlowestK != 3 {
		t.Errorf("classic Build: hier config %+v, want fresh checks, self-check every %d, attribution with K=3",
			c, verifyCheckEvery)
	}

	ff := Scaled(2, 16)
	ff.NoTako = true
	ff.FastForward = 1 << 20
	if s := New(ff); s.Sh != nil {
		t.Error("Options.Sharded re-hosted a machine whose Config asks for fast-forward")
	}

	SetOptions(Options{})
	if c := New(Scaled(2, 16)).H.Config(); c.FreshChecks || c.SelfCheckEvery != 0 || c.Attribution || c.SlowestK != 0 {
		t.Errorf("zero Options armed checks: %+v", c)
	}
}
