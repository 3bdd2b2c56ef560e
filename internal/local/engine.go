package local

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// Message is an arbitrary payload exchanged in one round on the legacy
// boxed transport. The LOCAL model places no bound on message size
// (§2.1.1), so payloads are free-form; algorithms define their own
// message types.
//
// Message and Process are the compatibility surface of the message
// engine, not its core: every execution runs on the wire-format round
// loop (WireProcess, wire.go), which reads and writes messages as
// fixed-width 64-bit words placed directly in the engine's send slabs.
// A legacy Process runs through a boxing shim that carries its payloads
// by reference over that same loop — semantics and Stats are identical,
// but each boxed payload costs an allocation the wire path does not pay.
// Algorithms on hot Monte-Carlo paths should implement WireAlgorithm.
type Message any

// NodeInfo is the static information a node holds when an execution
// starts: its identity, degree, input, and (for Monte-Carlo algorithms)
// its private random tape.
type NodeInfo struct {
	ID     int64
	Degree int
	Input  []byte
	// Tape is nil in deterministic executions.
	Tape *localrand.Tape
}

// Process is the legacy per-node state machine of a message-passing
// algorithm: messages are staged as []Message slices of interface-boxed
// payloads. The engine creates one Process per node; a Process must not
// share mutable state with other Processes (they run concurrently).
//
// Implementations of Process execute through the boxing shim over the
// wire core (see wire.go): correct, byte-identical to the old boxed
// engine, but paying one allocation per boxed payload per round. New
// algorithms — and any algorithm inside a trial loop — should implement
// WireProcess/WireAlgorithm instead and encode their messages as
// fixed-width words; a WireAlgorithm still satisfies this interface via
// NewLegacyProcess for callers that need the boxed form.
type Process interface {
	// Start receives the node's static information and returns the
	// messages to send in round 1, indexed by port (nil entries send
	// nothing; a nil or short slice is padded).
	Start(info NodeInfo) []Message
	// Step receives the messages that arrived in round r (indexed by the
	// receiving node's ports, nil = no message) and returns the messages
	// for round r+1. Returning done = true fixes the node's output; the
	// node sends nothing afterwards but neighbors may keep running.
	//
	// The received slice is engine-owned scratch, valid only for the
	// duration of the call: implementations must copy any values they
	// want to keep (message payloads themselves are never reused).
	// Likewise the returned slice is copied by the engine before the next
	// round, so implementations may reuse their own send buffer.
	Step(round int, received []Message) (send []Message, done bool)
	// Output returns the node's final output string. It is called once
	// the execution finishes and must be valid as soon as done was
	// returned (or when the engine's round budget is exhausted for
	// fixed-round algorithms).
	Output() []byte
}

// MessageAlgorithm creates the per-node processes of a distributed
// algorithm in which "all nodes perform the same instructions" (§2.1.1):
// one factory, one Process per node.
type MessageAlgorithm interface {
	Name() string
	NewProcess() Process
}

// Stats records the observable cost of an execution.
type Stats struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Messages is the number of (non-nil) messages delivered.
	Messages int64
}

// Result is the outcome of a message-passing execution.
type Result struct {
	Y     [][]byte
	Stats Stats
}

// ErrNoHalt reports an execution that exceeded its round budget.
var ErrNoHalt = errors.New("local: algorithm did not halt within the round budget")

// RunOptions tunes an execution.
type RunOptions struct {
	// MaxRounds caps the number of rounds; 0 selects 2n+64, a generous
	// bound for the algorithms in this repository.
	MaxRounds int
	// StopAfter, when positive, ends the execution after exactly that
	// many communication rounds whether or not all nodes reported done
	// (the completion time of a LOCAL algorithm is deterministic,
	// §2.1.2). Fixed-round algorithms must have valid outputs then.
	StopAfter int
	// Fault, when non-nil and enabled, injects the plan's faults —
	// message drop/delay, node crashes, topology surgery — into the run
	// (see fault.go). It overrides any executor default installed with
	// SetFault; nil falls back to that default, and a nil-or-zero
	// effective plan runs the unperturbed fast path. Every execution
	// shape honors the same plan byte-identically at equal fault seeds.
	Fault *FaultPlan
}

// RunMessage executes a message-passing algorithm on an instance. A nil
// draw yields a deterministic execution; otherwise each node's tape is
// drawn from σ by identity.
//
// RunMessage is the single-shot convenience wrapper over the Plan/Engine
// layer: it builds the instance's execution plan (the CSR flattening and
// reverse-port table are cached on the graph, so repeat runs share them)
// and a transient Engine. Callers measuring many executions on one graph
// — Monte-Carlo trial loops above all — should hold a Plan and give each
// worker its own Engine; see Plan and Engine in plan.go.
func RunMessage(in *lang.Instance, algo MessageAlgorithm, draw *localrand.Draw, opts RunOptions) (*Result, error) {
	plan, err := NewPlan(in.G)
	if err != nil {
		return nil, err
	}
	return plan.Run(in, algo, draw, opts)
}

// runCore runs a message algorithm with an explicit per-node tape source
// on a transient engine; the ball-simulation adapter uses it to thread
// view tapes through.
func runCore(in *lang.Instance, algo MessageAlgorithm, tapeOf func(v int) *localrand.Tape, opts RunOptions) (*Result, error) {
	plan, err := NewPlan(in.G)
	if err != nil {
		return nil, err
	}
	return plan.NewEngine().runWithTapes(in, algo, tapeOf, opts)
}

// ParallelFor runs fn(i) for i in [0, n), fanning contiguous chunks out
// onto whatever cores the process-wide budget can spare (see
// AcquireCores); passes under 2*minGrain indices, or with no core free,
// run inline on the caller. fn must touch disjoint state per index;
// under that contract the result is deterministic regardless of
// scheduling. Exported for the decider and experiment packages, which
// share the same per-node parallelism pattern.
func ParallelFor(n int, fn func(i int)) { parallelFor(n, fn) }

// parallelFor runs fn(i) for i in [0, n) in contiguous chunks through
// parallelChunks. Callers guarantee fn touches disjoint state per index,
// so the iteration is deterministic regardless of scheduling. A panic
// inside fn is captured and re-raised on the calling goroutine, so
// algorithm contract violations surface as ordinary recoverable panics.
func parallelFor(n int, fn func(i int)) {
	parallelChunks(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// minGrain is the fewest indices a node pass hands each worker: a pass
// over n indices runs on at most n/minGrain workers, so passes over
// fewer than 2*minGrain nodes never fan out. Below that size goroutine
// start-up and the join cost more than the work they would split.
const minGrain = 512

// coresHeld counts the extra cores handed out by AcquireCores and not
// yet returned. The budget is GOMAXPROCS−1: the goroutine asking always
// runs on its own core, so only cores beyond it are counted.
var coresHeld atomic.Int64

// AcquireCores takes up to want extra cores from the process-wide budget
// of GOMAXPROCS−1 and returns how many it got, 0 when none are free. It
// never blocks. The caller may run that many goroutines beside its own
// and must hand every core back with ReleaseCores. Monte-Carlo workers
// and node passes draw on this one budget, so a pass inside a trial
// widens only onto cores no other worker holds, and nested fan-out never
// puts more than GOMAXPROCS goroutines to work.
func AcquireCores(want int) int {
	if want <= 0 {
		return 0
	}
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		held := coresHeld.Load()
		free := limit - held
		if free <= 0 {
			return 0
		}
		got := min(int64(want), free)
		if coresHeld.CompareAndSwap(held, held+got) {
			return int(got)
		}
	}
}

// ReleaseCores returns n cores taken with AcquireCores to the budget.
func ReleaseCores(n int) {
	if n <= 0 {
		return
	}
	if coresHeld.Add(-int64(n)) < 0 {
		panic("local: ReleaseCores returned more cores than were acquired")
	}
}

// CoresHeld reports how many extra cores are currently taken from the
// budget.
func CoresHeld() int { return int(coresHeld.Load()) }

// maxWorkers bounds the worker index parallelChunks can hand out for n
// indices — min(GOMAXPROCS, n/minGrain), at least 1; callers size
// worker-indexed scratch from it.
func maxWorkers(n int) int {
	if n < 2*minGrain {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), n/minGrain)
}

// parallelChunks partitions [0, n) into contiguous chunks and runs
// body(w, lo, hi) for each. It asks the budget for up to maxWorkers(n)−1
// extra cores, starts one goroutine per core it gets, runs chunk 0 on
// the calling goroutine, and returns the cores on every exit, panics
// included; with no core to spare the whole range runs inline. w <
// maxWorkers(n) always holds, so bodies may accumulate into
// worker-indexed scratch without atomics — the batched round loop counts
// delivered messages and halting transitions this way. How many workers
// a pass gets depends on concurrent load, so such scratch must be summed
// (order-free) and zero for idle workers. Panics are captured and
// re-raised on the calling goroutine once every chunk has stopped.
func parallelChunks(n int, body func(w, lo, hi int)) {
	extra := 0
	if want := maxWorkers(n) - 1; want > 0 {
		extra = AcquireCores(want)
		defer ReleaseCores(extra)
	}
	if extra == 0 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	run := func(w, lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicked == nil {
					panicked = r
				}
				mu.Unlock()
			}
		}()
		body(w, lo, hi)
	}
	workers := 1 + extra
	chunk := (n + workers - 1) / workers
	for w := 1; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w, lo, hi)
		}()
	}
	run(0, 0, min(chunk, n))
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
