package sched

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefaultAndOverride(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(3); got != 3 {
		t.Fatalf("workers = %d, want 3", got)
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative: workers = %d", got)
	}
}

// TestMapResultsOrder checks results land in task order regardless of
// completion order, at several pool widths.
func TestMapResultsOrder(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		out, err := MapResults(w, 64, func(i int) (int, error) {
			// Make early tasks finish late so ordering would break if
			// results were appended in completion order.
			for s := 0; s < (64-i)*100; s++ {
				runtime.Gosched()
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

// TestMapFirstErrorByIndex checks the surfaced error is the lowest-index
// failure, not whichever failed first on the wall clock.
func TestMapFirstErrorByIndex(t *testing.T) {
	e3, e7 := errors.New("task 3"), errors.New("task 7")
	var ran atomic.Int64
	err := Map(4, 16, func(i int) error {
		ran.Add(1)
		switch i {
		case 3:
			return e3
		case 7:
			return e7
		}
		return nil
	})
	if err != e3 {
		t.Fatalf("err = %v, want %v", err, e3)
	}
	if ran.Load() != 16 {
		t.Fatalf("ran %d tasks, want all 16 (tasks must complete even on error)", ran.Load())
	}
}

func TestMapInlineWhenSingleWorker(t *testing.T) {
	// Inline execution means strict sequential order.
	var order []int
	err := Map(1, 8, func(i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order = %v", order)
		}
	}
}

func TestMapZeroTasks(t *testing.T) {
	if err := Map(0, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	out, err := MapResults(0, 0, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}
