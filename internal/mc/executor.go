package mc

import (
	"runtime"

	"rlnc/internal/local"
)

// Executor is the package's one Monte-Carlo execution surface: every
// knob that used to pick a different entry point — per-worker state,
// trial vectorization, shard-group pool sizing, and now fault injection —
// is a field, and the verbs are methods: Run estimates a Bernoulli
// probability, Mean a real-valued observable. The legacy free functions
// (Run/RunWith/RunBatched/RunSharded and the Mean quartet) are thin
// deprecated wrappers over this struct and remain bit-identical to it.
//
// The zero value runs scalar trials with no state. A scalar executor
// draws its trial workers from the process-wide core budget
// (local.AcquireCores): one worker on the calling goroutine's core plus
// up to min(GOMAXPROCS, chunks)−1 more, as many as are free, handed back
// when the sweep returns. Node passes inside the trial bodies draw
// on the same budget, so a sweep and its passes together never put more
// than GOMAXPROCS goroutines to work:
//
//	est := mc.Executor[struct{}]{Trials: 10000}.Run(mc.Scalar(func(_ struct{}, trial int) bool {
//		return trialSucceeds(trial)
//	}))
//
// Trials must derive all randomness from the trial index, so estimates
// are reproducible and independent of scheduling, chunking, and pool
// size.
type Executor[S any] struct {
	// Trials is the number of independent trials.
	Trials int
	// Batch is the trial-vector width handed to the body: each call
	// receives a contiguous chunk of at most Batch trial indices. Values
	// below 1 mean scalar execution (chunks of one). The intended state
	// for Batch > 1 is a reusable *local.Batch of the same width.
	Batch int
	// Shards, when positive, sizes the worker pool for shard-group
	// execution: GOMAXPROCS/Shards groups (at least one), taken outside
	// the core budget, because each sharded trial vector already runs on
	// Shards goroutines. Zero selects the budgeted scalar pool.
	Shards int
	// Fault, when non-nil, is armed as the default fault plan of every
	// worker state that exposes SetFault(*local.FaultPlan) — Engine,
	// Batch, and Sharded all do — so a whole trial sweep runs under one
	// fault model without threading RunOptions through every call site.
	// States without SetFault ignore it.
	Fault *local.FaultPlan
	// NewState is called once per worker; its value is passed to every
	// trial body that worker executes. The intended state is reusable
	// execution scratch (*local.Engine, *local.Batch, *local.Sharded).
	// nil yields the zero S. States implementing io.Closer are closed
	// when their worker retires.
	NewState func() S
	// Progress, when non-nil, observes the sweep's trial-chunk schedule:
	// it is called once with (0, total) before the first chunk runs —
	// total being the sweep's chunk count — and once per completed chunk
	// with the cumulative completed count. Failed attempts report nothing
	// (their rerun does, on success). Calls after the first may
	// arrive concurrently from worker goroutines, so the callback must be
	// safe for concurrent use; it must not panic. This is the hook the
	// serve layer's per-run SSE progress events ride on.
	Progress func(done, total int)
}

// faultSetter is what a worker state must expose for Executor.Fault to
// arm it; local.Engine, local.Batch, and local.Sharded all qualify.
type faultSetter interface {
	SetFault(*local.FaultPlan)
}

// workers sizes the steal pool. A sharded executor keeps its shard-group
// pool and holds no budget cores. A scalar one runs on the calling
// goroutine's core plus however many of min(GOMAXPROCS, chunks)−1 extra
// cores the process-wide budget (local.AcquireCores) can spare; extra
// is that grant, which the caller returns with local.ReleaseCores once
// the sweep is over.
func (e Executor[S]) workers() (n, extra int) {
	if e.Shards > 0 {
		return shardGroups(e.Shards), 0
	}
	b := e.batch()
	chunks := (e.Trials + b - 1) / b
	extra = local.AcquireCores(min(runtime.GOMAXPROCS(0), chunks) - 1)
	return 1 + extra, extra
}

// batch returns the effective trial-vector width.
func (e Executor[S]) batch() int {
	if e.Batch < 1 {
		return 1
	}
	return e.Batch
}

// stateFn resolves the per-worker state constructor, arming the fault
// plan on states that accept one.
func (e Executor[S]) stateFn() func() S {
	ns := e.NewState
	if ns == nil {
		ns = func() S { var zero S; return zero }
	}
	if e.Fault == nil {
		return ns
	}
	fault := e.Fault
	return func() S {
		s := ns()
		if fs, ok := any(s).(faultSetter); ok {
			fs.SetFault(fault)
		}
		return s
	}
}

// Run executes the executor's trials of a Bernoulli body and returns the
// estimate. The body receives a contiguous trial chunk [lo, hi) of at
// most Batch indices and fills out (out[i] reports trial lo+i); wrap a
// per-trial predicate with Scalar when no vectorization is wanted.
//
// Chunks are scheduled by the work-stealing queue (steal.go): workers
// pull chunks off a shared dequeue, so a slow worker just processes
// fewer of them, and a chunk whose body fails (Fail, or any panic) is
// retried on a freshly built state before the failure is considered
// permanent. Estimates stay bit-identical to the legacy static split.
func (e Executor[S]) Run(f func(s S, lo, hi int, out []bool)) Estimate {
	workers, extra := e.workers()
	defer local.ReleaseCores(extra)
	return runSteal(e.Trials, e.batch(), workers, e.stateFn(), e.Progress, f)
}

// Mean executes the executor's trials of a real-valued body and returns
// the sample mean and standard error. Chunking and failure handling
// follow Run's work-stealing schedule; per-trial values are merged in
// trial order, so the float accumulation order — hence every rendered
// digit — is a fixed function of the trial count, independent of pool
// size and scheduling. Wrap a per-trial observable with ScalarMean when
// no vectorization is wanted.
func (e Executor[S]) Mean(f func(s S, lo, hi int, out []float64)) (mean, stderr float64) {
	workers, extra := e.workers()
	defer local.ReleaseCores(extra)
	return meanSteal(e.Trials, e.batch(), workers, e.stateFn(), e.Progress, f)
}

// Scalar adapts a per-trial predicate to Run's vector body.
func Scalar[S any](f func(s S, trial int) bool) func(s S, lo, hi int, out []bool) {
	return func(s S, lo, hi int, out []bool) {
		for i := lo; i < hi; i++ {
			out[i-lo] = f(s, i)
		}
	}
}

// ScalarMean adapts a per-trial observable to Mean's vector body.
func ScalarMean[S any](f func(s S, trial int) float64) func(s S, lo, hi int, out []float64) {
	return func(s S, lo, hi int, out []float64) {
		for i := lo; i < hi; i++ {
			out[i-lo] = f(s, i)
		}
	}
}
