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
		{"verify+attr", Options{Verify: true, Attribution: true, SlowestK: 5}, ""},
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

// TestOptionsApplyWhereMachinesAreBuilt pins that New arms the window's
// Options on every hierarchy it builds, and that a machine built outside
// any window gets none.
func TestOptionsApplyWhereMachinesAreBuilt(t *testing.T) {
	StartCapture(CaptureConfig{Options: Options{Verify: true, Attribution: true, SlowestK: 3}})
	c := New(Scaled(2, 16)).H.Config()
	StopCapture()
	if !c.FreshChecks || c.SelfCheckEvery != verifyCheckEvery || !c.Attribution || c.SlowestK != 3 {
		t.Errorf("New: hier config %+v, want fresh checks, self-check every %d, attribution with K=3",
			c, verifyCheckEvery)
	}

	if c := New(Scaled(2, 16)).H.Config(); c.FreshChecks || c.SelfCheckEvery != 0 || c.Attribution || c.SlowestK != 0 {
		t.Errorf("a machine built outside any window armed checks: %+v", c)
	}
}
