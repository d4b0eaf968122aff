package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tako/internal/cpu"
	"tako/internal/mem"
	"tako/internal/sim"
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

// TestOneWindowPerCommand pins what a command's one run window gives its
// experiments: each End returns only its own experiment's runs, the
// systems of two experiments get distinct pids in the one trace file,
// and the Chrome document is closed once, after the last experiment (a
// sink closed earlier would drop the second experiment's events).
func TestOneWindowPerCommand(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.trace.json")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-trace", tracePath, "-trace-kinds", "dram.*", "-j", "1"}); err != nil {
		t.Fatal(err)
	}
	r := f.Start("test")
	for _, id := range []string{"a", "b"} {
		r.Begin(id)
		s := system.New(system.Scaled(2, 16))
		region := s.Alloc("data", 16*1024)
		s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) {
			for i := 0; i < 64; i++ {
				c.Store(p, region.Base+mem.Addr(i*64), uint64(i))
			}
		})
		s.Run()
		system.Submit(system.LabelRun(s, id+"/run", s.Ops()), 1, false)
		if res := r.End(id, true); len(res.Runs) != 1 || res.Runs[0].Label != id+"/run" || res.ExecMS != 1 {
			t.Fatalf("experiment %s collected %+v, want its one run", id, res)
		}
	}
	r.Finish()
	if len(r.Runs) != 2 {
		t.Fatalf("command kept %d runs, want 2", len(r.Runs))
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not one closed Chrome document: %v", err)
	}
	names := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			names[e.Pid], _ = e.Args["name"].(string)
		}
	}
	if len(names) != 2 || names[0] != "a/run" || names[1] != "b/run" {
		t.Errorf("process names by pid = %v, want 0: a/run, 1: b/run", names)
	}
}
