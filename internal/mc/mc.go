// Package mc is the Monte-Carlo measurement harness used by every
// experiment: it runs independent Bernoulli trials on a pool of workers
// and reports point estimates with Wilson confidence intervals. Trials are
// indexed, and callers derive all randomness from the trial index, so
// results are reproducible and independent of parallel scheduling.
package mc

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
)

// Estimate is the outcome of a batch of Bernoulli trials.
type Estimate struct {
	Trials    int
	Successes int
}

// P returns the point estimate of the success probability.
func (e Estimate) P() float64 {
	if e.Trials == 0 {
		return math.NaN()
	}
	return float64(e.Successes) / float64(e.Trials)
}

// Wilson returns the Wilson score interval at the given z value
// (z = 1.96 for 95%, 2.58 for 99%). Preferred over the normal interval
// because experiment probabilities sit near 0 and 1.
func (e Estimate) Wilson(z float64) (lo, hi float64) {
	if e.Trials == 0 {
		return math.NaN(), math.NaN()
	}
	n := float64(e.Trials)
	p := e.P()
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// String renders the estimate as "p=0.618 (k/n)".
func (e Estimate) String() string {
	return fmt.Sprintf("p=%.4f (%d/%d)", e.P(), e.Successes, e.Trials)
}

// forEachWorker partitions [0, trials) into contiguous chunks and runs
// body(w, lo, hi) for each on its own goroutine (or inline when one
// worker suffices). workers caps the pool and bounds every index w the
// bodies see — callers size their per-worker result slices from the
// same value, so the two can never disagree. Bodies must write only
// worker-indexed state.
func forEachWorker(trials, workers int, body func(w, lo, hi int)) {
	if workers > trials {
		workers = trials
	}
	if workers <= 1 {
		if trials > 0 {
			body(0, 0, trials)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (trials + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > trials {
			hi = trials
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// Run executes trials of f on a worker pool; f receives the trial index
// and must derive all randomness from it (e.g. as a tape-space draw
// index). The aggregate is independent of scheduling.
//
// Deprecated: use Executor — Executor[struct{}]{Trials: trials}.Run with
// a Scalar body is the same computation.
func Run(trials int, f func(trial int) bool) Estimate {
	return Executor[struct{}]{Trials: trials}.
		Run(Scalar(func(_ struct{}, trial int) bool { return f(trial) }))
}

// RunWith is Run with per-worker state: newState is called once per
// worker and its value is passed to every trial that worker executes.
// The intended state is a reusable *local.Engine, so the O(n + m)
// execution scratch is set up once per worker instead of once per trial.
//
// Deprecated: use Executor with NewState and a Scalar body.
func RunWith[S any](trials int, newState func() S, f func(s S, trial int) bool) Estimate {
	return Executor[S]{Trials: trials, NewState: newState}.Run(Scalar(f))
}

// RunBatched is RunWith with vectorized trials: instead of one index at a
// time, each worker hands f a contiguous trial chunk [lo, hi) of at most
// batch indices and a result slice out of length hi-lo to fill (out[i]
// reports trial lo+i). The intended state is a reusable *local.Batch of
// width batch, so a whole chunk of trials runs through one engine pass.
//
// Deprecated: use Executor with Batch set.
func RunBatched[S any](trials, batch int, newState func() S, f func(s S, lo, hi int, out []bool)) Estimate {
	return Executor[S]{Trials: trials, Batch: batch, NewState: newState}.Run(f)
}

// RunSharded is RunBatched for sharded execution state: the intended S
// is a *local.Sharded of `shards` shards, whose every trial vector
// already runs on that many goroutines, so the pool is sized at
// GOMAXPROCS/shards shard groups instead of the budgeted scalar pool.
//
// Deprecated: use Executor with Batch and Shards set.
func RunSharded[S any](trials, batch, shards int, newState func() S, f func(s S, lo, hi int, out []bool)) Estimate {
	return Executor[S]{Trials: trials, Batch: batch, Shards: shards, NewState: newState}.Run(f)
}

// closeState releases a worker state that holds external resources
// (sockets, worker-process leases): states implementing io.Closer are
// closed when their worker retires, so transports injected through
// trial-state constructors cannot leak across a trial sweep.
func closeState(s any) {
	if c, ok := s.(io.Closer); ok {
		c.Close()
	}
}

// shardGroups sizes the worker pool for shard-group execution.
func shardGroups(shards int) int {
	if shards < 1 {
		shards = 1
	}
	groups := runtime.GOMAXPROCS(0) / shards
	if groups < 1 {
		groups = 1
	}
	return groups
}

// runBatchedWorkers is the legacy static-split core: every worker gets
// one contiguous trial range up front. Retained as the differential
// reference for the work-stealing scheduler (steal.go), whose Estimate
// must stay bit-identical to this split.
func runBatchedWorkers[S any](trials, batch, workers int, newState func() S, f func(s S, lo, hi int, out []bool)) Estimate {
	if batch < 1 {
		batch = 1
	}
	counts := make([]int, workers)
	forEachWorker(trials, workers, func(w, lo, hi int) {
		s := newState()
		defer closeState(s)
		out := make([]bool, batch)
		for start := lo; start < hi; start += batch {
			end := start + batch
			if end > hi {
				end = hi
			}
			chunk := out[:end-start]
			clear(chunk)
			f(s, start, end, chunk)
			for _, ok := range chunk {
				if ok {
					counts[w]++
				}
			}
		}
	})
	succ := 0
	for _, c := range counts {
		succ += c
	}
	return Estimate{Trials: trials, Successes: succ}
}

// Mean runs trials of a real-valued observable and returns its sample
// mean and standard error.
//
// Deprecated: use Executor — Executor[struct{}]{Trials: trials}.Mean
// with a ScalarMean body is the same computation.
func Mean(trials int, f func(trial int) float64) (mean, stderr float64) {
	return Executor[struct{}]{Trials: trials}.
		Mean(ScalarMean(func(_ struct{}, trial int) float64 { return f(trial) }))
}

// MeanWith is Mean with per-worker state; see RunWith.
//
// Deprecated: use Executor with NewState and a ScalarMean body.
func MeanWith[S any](trials int, newState func() S, f func(s S, trial int) float64) (mean, stderr float64) {
	return Executor[S]{Trials: trials, NewState: newState}.Mean(ScalarMean(f))
}

// MeanBatched is MeanWith with vectorized trials; see RunBatched. Each
// worker accumulates its chunk's values in trial order, so the mean and
// standard error are bit-identical to MeanWith's for the same per-trial
// observable.
//
// Deprecated: use Executor with Batch set.
func MeanBatched[S any](trials, batch int, newState func() S, f func(s S, lo, hi int, out []float64)) (mean, stderr float64) {
	return Executor[S]{Trials: trials, Batch: batch, NewState: newState}.Mean(f)
}

// MeanSharded is MeanBatched with shard-group pool sizing; see
// RunSharded.
//
// Deprecated: use Executor with Batch and Shards set.
func MeanSharded[S any](trials, batch, shards int, newState func() S, f func(s S, lo, hi int, out []float64)) (mean, stderr float64) {
	return Executor[S]{Trials: trials, Batch: batch, Shards: shards, NewState: newState}.Mean(f)
}

// meanBatchedWorkers is the legacy static-split Mean core; like
// runBatchedWorkers it survives as the reference the work-stealing
// scheduler is differentially tested against. Its per-worker float
// accumulation makes the low digits depend on the worker count — the
// trial-order merge in meanSteal is what replaced it.
func meanBatchedWorkers[S any](trials, batch, workers int, newState func() S, f func(s S, lo, hi int, out []float64)) (mean, stderr float64) {
	if batch < 1 {
		batch = 1
	}
	sums := make([]float64, workers)
	sqs := make([]float64, workers)
	forEachWorker(trials, workers, func(w, lo, hi int) {
		s := newState()
		defer closeState(s)
		out := make([]float64, batch)
		for start := lo; start < hi; start += batch {
			end := start + batch
			if end > hi {
				end = hi
			}
			chunk := out[:end-start]
			clear(chunk)
			f(s, start, end, chunk)
			for _, v := range chunk {
				sums[w] += v
				sqs[w] += v * v
			}
		}
	})
	var sum, sq float64
	for w := range sums {
		sum += sums[w]
		sq += sqs[w]
	}
	return meanStats(trials, sum, sq)
}

// meanStats turns accumulated value and square sums into the sample mean
// and standard error.
func meanStats(trials int, sum, sq float64) (mean, stderr float64) {
	n := float64(trials)
	mean = sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	if trials > 1 {
		stderr = math.Sqrt(variance / (n - 1))
	}
	return mean, stderr
}
