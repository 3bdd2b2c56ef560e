package mc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rlnc/internal/local"
)

// TestCoreBudgetSweepsAndPasses runs concurrent Monte-Carlo sweeps whose
// trial bodies run node passes through local.ParallelFor — one sweep's
// pass panicking on every attempt — and checks that the sweep workers
// and the passes draw on one budget: the extra cores held never exceed
// GOMAXPROCS−1, every estimate is exact, the failing sweep re-raises its
// panic, and every core is back once the sweeps return.
func TestCoreBudgetSweepsAndPasses(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const sweeps, trials, nodes = 6, 24, 2048
	var peak atomic.Int64
	observe := func() {
		h := int64(local.CoresHeld())
		for p := peak.Load(); h > p && !peak.CompareAndSwap(p, h); p = peak.Load() {
		}
	}
	// trial marks every node of a 2048-node pass and succeeds when the
	// trial outcome says so; the pass is wide enough to fan out whenever
	// cores are free.
	trial := func(i int, fail bool) bool {
		hits := make([]bool, nodes)
		local.ParallelFor(nodes, func(v int) {
			if v%512 == 0 {
				observe()
			}
			if fail && v == nodes-1 {
				panic("pass failed")
			}
			hits[v] = true
		})
		for _, h := range hits {
			if !h {
				return false
			}
		}
		return trialOutcome(i)
	}
	want := 0
	for i := 0; i < trials; i++ {
		if trialOutcome(i) {
			want++
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < sweeps; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := s == 0
			defer func() {
				if r := recover(); fail != (r != nil) {
					t.Errorf("sweep %d: recovered %v", s, r)
				}
			}()
			est := Executor[struct{}]{Trials: trials, Batch: 2}.Run(func(_ struct{}, lo, hi int, out []bool) {
				observe()
				for i := lo; i < hi; i++ {
					out[i-lo] = trial(i, fail)
				}
			})
			if est.Successes != want {
				t.Errorf("sweep %d: %d successes, want %d", s, est.Successes, want)
			}
		}()
	}
	wg.Wait()
	if pk := peak.Load(); pk > 3 {
		t.Fatalf("peak %d extra cores held, budget is 3", pk)
	}
	if h := local.CoresHeld(); h != 0 {
		t.Fatalf("%d cores still held after every sweep returned", h)
	}
}

// TestCoreBudgetHeldRunsOneWorker pins the other end of the budget: with
// every extra core taken, a sweep builds one worker state and still
// produces the exact estimate.
func TestCoreBudgetHeldRunsOneWorker(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	held := local.AcquireCores(3)
	defer local.ReleaseCores(held)
	var states atomic.Int32
	est := Executor[struct{}]{
		Trials:   97,
		Batch:    4,
		NewState: func() struct{} { states.Add(1); return struct{}{} },
	}.Run(Scalar(func(_ struct{}, trial int) bool { return trialOutcome(trial) }))
	want := runBatchedWorkers(97, 4, 1, func() struct{} { return struct{}{} },
		Scalar(func(_ struct{}, trial int) bool { return trialOutcome(trial) }))
	if est != want || states.Load() != 1 {
		t.Fatalf("with the budget exhausted: %+v from %d states, want %+v from 1", est, states.Load(), want)
	}
	if h := local.CoresHeld(); h != held {
		t.Fatalf("%d cores held after the sweep, want the test's %d", h, held)
	}
}
