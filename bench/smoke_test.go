package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// childEnv makes the test binary act as the bench's child process, so
// the smoke test spawns reps exactly as the bench does.
const childEnv = "TAKOBENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmokeWorkloads runs every workload at smoke size twice plus once
// traced, each in its own child process: every rep must pass its
// correctness checks with one fingerprint, and a rep whose fingerprint
// is tampered with must count as failed.
func TestSmokeWorkloads(t *testing.T) {
	t.Setenv(childEnv, "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := &runner{exe: exe, size: "smoke", seed: 1, workdir: dir}
	ctx := context.Background()
	for _, w := range workloadList {
		reps := []rep{
			r.spawn(ctx, w.name, "", false),
			r.spawn(ctx, w.name, "", false),
			r.spawn(ctx, w.name, filepath.Join(dir, w.name+".pprof"), false),
		}
		for _, rp := range reps {
			if !rp.OK {
				t.Errorf("%s: rep failed: %s", w.name, rp.Err)
			}
		}
		s := summarize(reps)
		if s.Failed != 0 || reps[0].Fingerprint != reps[1].Fingerprint {
			t.Errorf("%s: %d of %d reps failed; fingerprints %s, %s, traced %s", w.name, s.Failed, s.Attempted,
				reps[0].Fingerprint, reps[1].Fingerprint, reps[2].Fingerprint)
		}
		if !s.complete(false) || !s.complete(true) {
			t.Errorf("%s: incomplete metrics: end-to-end %v, per-layer %v", w.name, s.EndToEnd, s.PerLayer)
		}
		for _, m := range perLayer() {
			if _, ok := s.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.Name)
			}
		}

		tampered := append([]rep(nil), reps...)
		tampered[1].Fingerprint += "x"
		if s := summarize(tampered); s.Failed != 1 || tampered[1].OK {
			t.Errorf("%s: a mismatched fingerprint left %d failed reps, want 1", w.name, s.Failed)
		}
	}
}
