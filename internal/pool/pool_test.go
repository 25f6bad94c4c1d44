package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := Workers(-3); got != want {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS = %d", got, want)
	}
}

func TestMapOrderedAndComplete(t *testing.T) {
	const n = 1000
	for _, w := range []int{1, 2, 7, 64} {
		got := Map(w, n, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 500
	fn := func(i int) string { return fmt.Sprintf("task-%03d", i) }
	serial := Map(1, n, fn)
	for _, w := range []int{2, 5, 32} {
		parallel := Map(w, n, fn)
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d: result %d differs: %q vs %q", w, i, serial[i], parallel[i])
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	ForEach(workers, 200, func(_, i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", p, workers)
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	ran := false
	ForEach(4, 0, func(int, int) { ran = true })
	ForEach(4, -5, func(int, int) { ran = true })
	if ran {
		t.Fatal("ForEach ran tasks for n <= 0")
	}
}

func TestMapErrReturnsLowestIndexedError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, w := range []int{1, 4} {
		out, err := MapErr(w, 10, func(i int) (int, error) {
			switch i {
			case 7:
				return 0, errB
			case 3:
				return 0, errA
			default:
				return i, nil
			}
		})
		if err != errA {
			t.Fatalf("workers=%d: err = %v, want first-by-index %v", w, err, errA)
		}
		if out[9] != 9 {
			t.Fatalf("workers=%d: successful results not collected: %v", w, out)
		}
	}
	if _, err := MapErr(4, 5, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: panic not propagated", w)
				}
			}()
			ForEach(w, 50, func(_, i int) {
				if i == 13 {
					panic("boom")
				}
			})
		}()
	}
}

// TestForEachWorkerIndex holds the contract per-worker state rests on: every
// worker index is in [0, min(workers, n)), the tasks of one worker never run
// at once, and state kept per worker (here a scratch buffer a task
// overwrites) changes no result at any worker count.
func TestForEachWorkerIndex(t *testing.T) {
	const n = 300
	task := func(buf []int, i int) int {
		for k := range buf {
			buf[k] = i + k
		}
		sum := 0
		for _, v := range buf {
			sum += v
		}
		return sum
	}
	var want []int
	for _, workers := range []int{1, 2, 3, 8, 500} {
		span := min(workers, n)
		bufs := make([][]int, span)
		busy := make([]atomic.Int32, span)
		out := make([]int, n)
		ForEach(workers, n, func(w, i int) {
			if w < 0 || w >= span {
				t.Errorf("workers=%d: task %d ran on worker %d, want one in [0, %d)", workers, i, w, span)
				return
			}
			if busy[w].Add(1) != 1 {
				t.Errorf("workers=%d: worker %d ran two tasks at once", workers, w)
			}
			if bufs[w] == nil {
				bufs[w] = make([]int, 64)
			}
			out[i] = task(bufs[w], i)
			busy[w].Add(-1)
		})
		if want == nil {
			want = out
			continue
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("workers=%d: result %d is %d, %d at one worker", workers, i, out[i], want[i])
			}
		}
	}
}
