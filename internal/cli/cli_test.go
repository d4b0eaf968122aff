package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"tako/internal/system"
)

// TestFlagsSelectOptions covers the shared flags' mapping onto
// system.Options and which combinations Start accepts (it exits 2 on a
// Validate error).
func TestFlagsSelectOptions(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want system.Options
		bad  string // substring of the Validate error; empty means accepted
	}{
		{nil, system.Options{}, ""},
		{[]string{"-verify", "-attr"}, system.Options{Verify: true, Attribution: true}, ""},
		{[]string{"-slowest", "5"}, system.Options{Attribution: true, SlowestK: 5}, ""},
		{[]string{"-verify", "-slowest", "2"}, system.Options{Verify: true, Attribution: true, SlowestK: 2}, ""},
		{[]string{"-slowest", "-1"}, system.Options{SlowestK: -1}, "-slowest"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := Register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		o := f.Options()
		if o != tc.want {
			t.Errorf("%v: options %+v, want %+v", tc.args, o, tc.want)
		}
		err := o.Validate()
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%v: rejected: %v", tc.args, err)
		case tc.bad != "" && err == nil:
			t.Errorf("%v: accepted", tc.args)
		case tc.bad != "" && !strings.Contains(err.Error(), tc.bad):
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.bad)
		}
	}
}

// TestFastForwardIsNotAFlag pins that fast-forward is a property of a
// machine's Config, not a run flag: a process-wide -ff once warmed only
// the baseline machines of a figure, skewing every täkō-vs-baseline
// ratio it printed. The flags of the deleted tile-sharded engine are
// rejected too.
func TestFastForwardIsNotAFlag(t *testing.T) {
	for _, args := range [][]string{{"-ff"}, {"-ff-auto"}, {"-sharded"}, {"-shard-workers", "2"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("Register accepts %v", args)
		}
	}
}

// TestStartExitsOnRejectedOptions pins that Start exits 2 on rejected
// options, naming the flag, before any run begins. The test binary
// re-executes itself to run Start in a child process.
func TestStartExitsOnRejectedOptions(t *testing.T) {
	if os.Getenv("CLI_START_CHILD") == "1" {
		fs := flag.NewFlagSet("takosim", flag.ContinueOnError)
		f := Register(fs)
		if err := fs.Parse([]string{"-slowest", "-1"}); err != nil {
			os.Exit(3)
		}
		f.Start("takosim")
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStartExitsOnRejectedOptions$")
	cmd.Env = append(os.Environ(), "CLI_START_CHILD=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("Start with -slowest -1: %v, want exit status 2", err)
	}
	if msg := stderr.String(); !strings.Contains(msg, "-slowest") {
		t.Errorf("message %q does not name -slowest", msg)
	}
}
