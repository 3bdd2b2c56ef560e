package local

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// chunkCall is one body(w, lo, hi) invocation seen by parallelChunks.
type chunkCall struct{ w, lo, hi int }

// recordChunks runs parallelChunks over n indices and returns its calls
// sorted by lo.
func recordChunks(n int) []chunkCall {
	var mu sync.Mutex
	var calls []chunkCall
	parallelChunks(n, func(w, lo, hi int) {
		mu.Lock()
		calls = append(calls, chunkCall{w, lo, hi})
		mu.Unlock()
	})
	sort.Slice(calls, func(i, j int) bool { return calls[i].lo < calls[j].lo })
	return calls
}

// TestCoreBudgetGrainAndInline pins how a node pass is split: no fan-out
// below 2*minGrain indices, at most n/minGrain workers above it, worker
// 0 on the caller, chunks that tile [0, n), worker indices below
// maxWorkers(n), and a fully inline pass when the budget is exhausted.
func TestCoreBudgetGrainAndInline(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, tc := range []struct{ n, workers int }{
		{0, 0}, {1, 1}, {2*minGrain - 1, 1}, {2 * minGrain, 2}, {3 * minGrain, 3}, {8 * minGrain, 4},
	} {
		calls := recordChunks(tc.n)
		if len(calls) != tc.workers {
			t.Fatalf("n=%d: %d chunks %v, want %d", tc.n, len(calls), calls, tc.workers)
		}
		next := 0
		for _, c := range calls {
			if c.lo != next || c.hi <= c.lo || c.w >= maxWorkers(tc.n) {
				t.Fatalf("n=%d: chunks %v do not tile [0, n) with w < %d", tc.n, calls, maxWorkers(tc.n))
			}
			next = c.hi
		}
		if next != tc.n {
			t.Fatalf("n=%d: chunks %v stop at %d", tc.n, calls, next)
		}
		if calls != nil && calls[0].w != 0 {
			t.Fatalf("n=%d: first chunk ran as worker %d, want 0 (the caller)", tc.n, calls[0].w)
		}
	}
	held := AcquireCores(3)
	calls := recordChunks(8 * minGrain)
	ReleaseCores(held)
	if held != 3 || len(calls) != 1 || calls[0] != (chunkCall{0, 0, 8 * minGrain}) {
		t.Fatalf("with %d cores held: chunks %v, want one inline chunk", held, calls)
	}
	if h := CoresHeld(); h != 0 {
		t.Fatalf("%d cores still held", h)
	}
}

// TestCoreBudgetAcquireRelease pins the budget arithmetic: grants are
// capped at GOMAXPROCS−1 in total, requests for nothing get nothing, and
// returning more cores than were taken is a bug that panics.
func TestCoreBudgetAcquireRelease(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	if got := AcquireCores(0); got != 0 {
		t.Fatalf("AcquireCores(0) = %d", got)
	}
	a := AcquireCores(2)
	b := AcquireCores(5)
	c := AcquireCores(1)
	if a != 2 || b != 1 || c != 0 || CoresHeld() != 3 {
		t.Fatalf("grants %d, %d, %d with %d held; want 2, 1, 0 with 3", a, b, c, CoresHeld())
	}
	ReleaseCores(a + b + c)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
		coresHeld.Store(0)
	}()
	ReleaseCores(1)
}

// TestCoreBudgetPanicReleases checks that a panicking pass re-raises its
// value on the caller only after every chunk has stopped, and returns
// its cores — whether the panic is in the caller's chunk or a helper's.
func TestCoreBudgetPanicReleases(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, bad := range []int{0, 2} {
		var finished atomic.Int32
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("panicking worker %d: recovered %v, want boom", bad, r)
				}
				if f := finished.Load(); f != 3 {
					t.Fatalf("panicking worker %d: re-raised with %d of 3 other chunks finished", bad, f)
				}
			}()
			parallelChunks(8*minGrain, func(w, lo, hi int) {
				if w == bad {
					panic("boom")
				}
				finished.Add(1)
			})
		}()
		if h := CoresHeld(); h != 0 {
			t.Fatalf("panicking worker %d: %d cores still held", bad, h)
		}
	}
}

// TestCoreBudgetConcurrentPasses runs many node passes at once, one of
// them panicking: the cores in use never exceed GOMAXPROCS−1, every
// index of every pass runs exactly once, and the budget drains to 0.
func TestCoreBudgetConcurrentPasses(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const passes, n = 16, 8 * minGrain
	var peak atomic.Int64
	observe := func() {
		h := int64(CoresHeld())
		for p := peak.Load(); h > p && !peak.CompareAndSwap(p, h); p = peak.Load() {
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < passes; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); (p == 0) != (r != nil) {
					t.Errorf("pass %d: recovered %v", p, r)
				}
			}()
			hits := make([]int32, n)
			ParallelFor(n, func(v int) {
				if v%minGrain == 0 {
					observe()
				}
				if p == 0 && v == n-1 {
					panic("boom")
				}
				hits[v]++
			})
			for v, h := range hits {
				if h != 1 {
					t.Errorf("pass %d: index %d ran %d times", p, v, h)
					return
				}
			}
		}()
	}
	wg.Wait()
	if pk := peak.Load(); pk > 3 {
		t.Fatalf("peak %d cores held, budget is 3", pk)
	}
	if h := CoresHeld(); h != 0 {
		t.Fatalf("%d cores still held", h)
	}
}
