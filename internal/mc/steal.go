package mc

import (
	"sync"
	"sync/atomic"
)

// This file is the work-stealing trial scheduler: the execution core of
// Executor.Run and Executor.Mean. The static split (forEachWorker,
// runBatchedWorkers, meanBatchedWorkers) hands every worker one
// contiguous range up front, so a slow or dead worker gates — or aborts
// — the whole sweep. Here the trial range is cut into [lo, hi) chunks of
// one batch each on a shared queue; workers dequeue, execute, and come
// back for more, so a straggling host simply ends up with fewer chunks.
//
// Two properties make stealing safe for a measurement harness:
//
//   - Estimates are bit-identical to the static split. Trial bodies
//     derive all randomness from the trial index, so a trial's outcome
//     does not depend on which worker ran it; Run sums integers
//     (order-free), and Mean writes every trial's value into a shared
//     per-trial slice and accumulates it in trial order after the last
//     chunk — one fixed summation order regardless of pool size or
//     scheduling (the static split only had that at one worker).
//
//   - A failing chunk is retried, not fatal. A body that cannot
//     complete its chunk signals with Fail (or any panic): the worker
//     discards its state — a sharded executor whose worker process died,
//     a poisoned transport — closes it, and reruns the chunk on a freshly
//     built state. A state provider that panics fails the attempt the
//     same way. Only a chunk that keeps failing (maxChunkAttempts fresh
//     states) aborts the sweep, re-raising the original panic.

// Fail aborts the current trial chunk with err: the scheduler closes the
// worker's state and retries the chunk on a freshly built state. Trial
// bodies call it when the failure is in the execution substrate (a dead
// worker process, a broken transport) rather than the measured
// algorithm — fabricating a degraded measurement instead would silently
// corrupt the estimate.
func Fail(err error) {
	panic(err)
}

// maxChunkAttempts bounds how many fresh states one chunk may consume
// before its failure is considered permanent and re-raised: the first
// attempt plus two retries.
const maxChunkAttempts = 3

// chunkFailure wraps a recovered chunk panic so the scheduler can tell
// "this attempt failed" from "ran clean".
type chunkFailure struct{ val any }

// runChunk executes one chunk attempt, converting a panic into a
// failure value.
func runChunk(body func()) (failure *chunkFailure) {
	defer func() {
		if r := recover(); r != nil {
			failure = &chunkFailure{val: r}
		}
	}()
	body()
	return nil
}

// stealWorkers runs body(w, s, lo, hi) over [0, trials) in chunks of
// batch on up to `workers` goroutines. Worker w starts on chunk w, then
// pulls from a shared FIFO queue of the remaining chunks, so every
// worker runs at least one chunk and a single worker processes chunks
// in ascending trial order — exactly the static split's order, which
// keeps one-worker runs byte-identical to it even for order-sensitive
// accumulation. w < workers indexes the goroutine (bodies may keep
// worker-indexed accumulators); s is the goroutine's current state.
//
// The state is built inside a chunk attempt, by the first attempt that
// needs one: a worker builds a state only for a chunk it runs, and a
// panicking state provider fails the attempt like a body panic instead
// of killing the process. A failed attempt closes the state, if any, and
// the worker retries the chunk on a fresh one until maxChunkAttempts is
// exhausted, at which point the sweep drains and the original panic
// value is re-raised.
//
// progress, when non-nil, observes the schedule: (0, nchunks) once
// before the first chunk is handed out, then the cumulative completed
// count after each clean chunk — the latter concurrently from worker
// goroutines (Executor.Progress documents the contract).
func stealWorkers[S any](trials, batch, workers int, newState func() S, progress func(done, total int), body func(w int, s S, lo, hi int)) {
	if batch < 1 {
		batch = 1
	}
	nchunks := (trials + batch - 1) / batch
	if nchunks == 0 {
		return
	}
	if progress != nil {
		progress(0, nchunks)
	}
	if workers > nchunks {
		workers = nchunks
	}
	if workers < 1 {
		workers = 1
	}
	// The queue holds the chunk indices no worker starts on, buffered to
	// exactly that count so filling it never blocks.
	queue := make(chan int, nchunks-workers)
	for i := workers; i < nchunks; i++ {
		queue <- i
	}
	close(queue)
	var pending atomic.Int64
	pending.Store(int64(nchunks))
	// done closes when the sweep is over — all chunks completed, or one
	// failed permanently.
	done := make(chan struct{})
	var doneOnce sync.Once
	finish := func() { doneOnce.Do(func() { close(done) }) }
	var fatalMu sync.Mutex
	var fatal *chunkFailure

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s S
			live := false // s is built and not yet closed
			defer func() {
				if live {
					closeState(s)
				}
			}()
			for i, ok := w, true; ok; {
				lo, hi := i*batch, min((i+1)*batch, trials)
				for attempt := 0; ; attempt++ {
					failure := runChunk(func() {
						if !live {
							s = newState()
							live = true
						}
						body(w, s, lo, hi)
					})
					if failure == nil {
						break
					}
					// The attempt died with its state: discard it and retry on
					// a fresh one. The fresh build re-runs the state
					// constructor, which is where degraded modes live (a
					// sharded provider excluding dead workers, or falling back
					// to a local batch).
					if live {
						closeState(s)
						live = false
					}
					if attempt+1 >= maxChunkAttempts {
						fatalMu.Lock()
						if fatal == nil {
							fatal = failure
						}
						fatalMu.Unlock()
						finish()
						return
					}
					select {
					case <-done:
						return // another chunk failed permanently
					default:
					}
				}
				left := pending.Add(-1)
				if progress != nil {
					progress(nchunks-int(left), nchunks)
				}
				if left == 0 {
					finish()
					return
				}
				select {
				case i, ok = <-queue:
				case <-done:
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if fatal != nil {
		panic(fatal.val)
	}
}

// runSteal is Run's core: per-worker success counters (integer sums are
// order-free, so the estimate is bit-identical to the static split's)
// over the stealing scheduler. A chunk's successes are counted only
// after its body returns clean — a failed attempt contributes nothing,
// and its rerun recounts from a zeroed row.
func runSteal[S any](trials, batch, workers int, newState func() S, progress func(done, total int), f func(s S, lo, hi int, out []bool)) Estimate {
	if batch < 1 {
		batch = 1
	}
	counts := make([]int, workers)
	outs := make([][]bool, workers)
	stealWorkers(trials, batch, workers, newState, progress, func(w int, s S, lo, hi int) {
		if outs[w] == nil {
			outs[w] = make([]bool, batch)
		}
		chunk := outs[w][:hi-lo]
		clear(chunk)
		f(s, lo, hi, chunk)
		for _, ok := range chunk {
			if ok {
				counts[w]++
			}
		}
	})
	succ := 0
	for _, c := range counts {
		succ += c
	}
	return Estimate{Trials: trials, Successes: succ}
}

// meanSteal is Mean's core: every trial's value lands in its own slot of
// a shared per-trial slice (chunks cover disjoint ranges, so workers
// never race), and the mean and standard error accumulate in trial order
// once the sweep completes. The summation order is therefore a fixed
// function of the trial count — independent of pool size, scheduling,
// and stealing — and identical to the static split's single-worker
// order, which is what the committed goldens pin at any GOMAXPROCS.
func meanSteal[S any](trials, batch, workers int, newState func() S, progress func(done, total int), f func(s S, lo, hi int, out []float64)) (mean, stderr float64) {
	if batch < 1 {
		batch = 1
	}
	vals := make([]float64, trials)
	stealWorkers(trials, batch, workers, newState, progress, func(w int, s S, lo, hi int) {
		chunk := vals[lo:hi]
		clear(chunk)
		f(s, lo, hi, chunk)
	})
	return meanOf(trials, vals)
}

// meanOf folds per-trial values in index order into the sample mean and
// standard error, exactly as meanBatchedWorkers folds per-worker sums.
func meanOf(trials int, vals []float64) (mean, stderr float64) {
	var sum, sq float64
	for _, v := range vals {
		sum += v
		sq += v * v
	}
	return meanStats(trials, sum, sq)
}
