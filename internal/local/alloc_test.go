//go:build !race

package local

import (
	"fmt"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/localrand"
)

// TestEngineReuseCutsAllocs enforces the PR's performance contract in
// CI. testing.AllocsPerRun pins GOMAXPROCS to 1, so both paths take the
// deterministic serial branch of parallelFor and the comparison is
// exact. Skipped under -race, whose instrumentation changes allocation
// counts.
//
// The contract is path-specific. The ball-view path — the Monte-Carlo
// trial hot path — must show ≥ 40% fewer allocs/op on a pooled engine,
// because ball extraction and view assembly amortize away. The
// message path's single-shot form is already slab-based after this
// refactor (no per-round receive allocation), so reuse only trims the
// per-run slab setup; there the pooled path must simply never allocate
// more than single-shot.
func TestEngineReuseCutsAllocs(t *testing.T) {
	in := mustInstance(t, graph.Cycle(256))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(3)

	// Ball-view path: ≥ 40% fewer allocs/op.
	trial := 0
	singleV := testing.AllocsPerRun(50, func() {
		draw := space.Draw(uint64(trial))
		RunView(in, tapeSumView{t: 2}, &draw)
		trial++
	})
	veng := plan.NewEngine()
	draw := space.Draw(0)
	veng.RunView(in, tapeSumView{t: 2}, &draw) // warm the view cache
	reuseV := testing.AllocsPerRun(50, func() {
		draw := space.Draw(uint64(trial))
		veng.RunView(in, tapeSumView{t: 2}, &draw)
		trial++
	})
	t.Logf("view allocs/op: single-shot %.1f, pooled %.1f", singleV, reuseV)
	if reuseV > 0.6*singleV {
		t.Errorf("pooled view path allocates %.1f/op vs %.1f/op single-shot; want ≥ 40%% fewer", reuseV, singleV)
	}

	// Message path: pooled must not allocate more than single-shot.
	run := func(eng *Engine, trial int) {
		d := space.Draw(uint64(trial))
		if _, err := eng.Run(in, tapeXOR{rounds: 4}, &d, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	single := testing.AllocsPerRun(50, func() {
		run(plan.NewEngine(), trial)
		trial++
	})
	eng := plan.NewEngine()
	run(eng, 0) // warm the slabs before measuring the steady state
	reuse := testing.AllocsPerRun(50, func() {
		run(eng, trial)
		trial++
	})
	t.Logf("message allocs/op: single-shot %.1f, pooled %.1f", single, reuse)
	if reuse > single {
		t.Errorf("pooled message path allocates %.1f/op vs %.1f/op single-shot", reuse, single)
	}

	// Batched paths: a lane must never allocate more than a pooled trial.
	// The batched view path shares one output slab per pass, so its
	// per-trial allocations sit strictly below the pooled path's; the
	// batched message path matches the pooled path lane for lane (one
	// Result and output column per lane) plus the vector bookkeeping,
	// amortized below one pooled trial across the width.
	const width = 8
	bt := plan.NewBatch(width)
	draws := make([]localrand.Draw, width)
	fill := func() {
		for i := range draws {
			draws[i] = space.Draw(uint64(trial))
			trial++
		}
	}
	fill()
	if _, err := bt.RunView(in, tapeSumView{t: 2}, draws); err != nil {
		t.Fatal(err) // warm the view cache
	}
	batchedV := testing.AllocsPerRun(20, func() {
		fill()
		if _, err := bt.RunView(in, tapeSumView{t: 2}, draws); err != nil {
			t.Fatal(err)
		}
	}) / width
	t.Logf("batched view allocs per trial: %.2f (pooled %.1f)", batchedV, reuseV)
	if batchedV > reuseV {
		t.Errorf("batched view path allocates %.2f per trial vs %.1f pooled", batchedV, reuseV)
	}

	runBatch := func() {
		fill()
		if _, err := bt.Run(in, tapeXOR{rounds: 4}, draws, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runBatch() // warm the slabs
	batchedM := testing.AllocsPerRun(20, runBatch) / width
	t.Logf("batched message allocs per trial: %.2f (pooled %.1f)", batchedM, reuse)
	if batchedM > reuse {
		t.Errorf("batched message path allocates %.2f per trial vs %.1f pooled", batchedM, reuse)
	}
}

// staticOutMix is wireMix with an allocation-free Output: verdata comes
// from a fixed table of immutable rows instead of a fresh encoding per
// call. This mirrors how the real algorithms hit the zero-alloc floor —
// construct's processes return lang.Encode* table entries — so the
// floors below measure the round kernel, not the fixture's encoder.
type staticOutMix struct{ rounds int }

func (a staticOutMix) Name() string        { return fmt.Sprintf("static-out-mix(%d)", a.rounds) }
func (a staticOutMix) MsgWords(d int) int  { return wireMix{}.MsgWords(d) }
func (a staticOutMix) NewProcess() Process { return NewLegacyProcess(a) }
func (a staticOutMix) NewWireProcess() WireProcess {
	return &staticOutProc{wireMixProc{rounds: a.rounds}}
}

type staticOutProc struct{ wireMixProc }

var staticOutTable = func() [][]byte {
	t := make([][]byte, 16)
	for i := range t {
		t[i] = []byte{byte(i)}
	}
	return t
}()

func (p *staticOutProc) Output() []byte { return staticOutTable[p.state&15] }

// TestSteadyStateAllocFloors pins the absolute allocation contract of
// the round kernel, not just the relative gates above. A warm batch
// running one ResetProcess wire algorithm back to back allocates
// NOTHING per run: outputs land in the double-buffered arena, processes
// reset in place, tapes reseed in place, and the round loop itself has
// been allocation-free since the wire core landed. A warm pooled Engine
// allocates exactly its two caller-owned slices — the Result vector and
// the output table — which are the price of the Engine contract that
// callers may retain results forever (TestFaultDeterminismAcrossShapes
// relies on it). The fixture's Output must itself be allocation-free
// (immutable table rows, like construct's lang.Encode* outputs), hence
// staticOutMix rather than wireMix. Skipped under -race, whose
// instrumentation changes allocation counts.
func TestSteadyStateAllocFloors(t *testing.T) {
	in := mustInstance(t, graph.Cycle(256))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(13)
	trial := 0

	const width = 8
	bt := plan.NewBatch(width)
	draws := make([]localrand.Draw, width)
	runBatch := func() {
		for i := range draws {
			draws[i] = space.Draw(uint64(trial))
			trial++
		}
		if _, err := bt.Run(in, staticOutMix{rounds: 6}, draws, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runBatch()
	runBatch() // warm both arena buffers and the pooled process table
	if got := testing.AllocsPerRun(50, runBatch); got != 0 {
		t.Errorf("warm batched message run allocates %.1f/op; want exactly 0", got)
	}

	eng := plan.NewEngine()
	runEng := func() {
		d := space.Draw(uint64(trial))
		trial++
		if _, err := eng.Run(in, staticOutMix{rounds: 6}, &d, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runEng()
	runEng()
	if got := testing.AllocsPerRun(50, runEng); got > 2 {
		t.Errorf("warm pooled engine run allocates %.1f/op; want ≤ 2 (the caller-owned Result and output table)", got)
	}
}

// staticVecMix is vecMix with allocation-free outputs on both paths —
// the vector-path analogue of staticOutMix, so the floor below measures
// the vec round kernel rather than the fixture's encoder.
type staticVecMix struct{ vecMix }

func (a staticVecMix) Name() string        { return fmt.Sprintf("static-vec-mix(%d)", a.rounds) }
func (a staticVecMix) NewProcess() Process { return NewLegacyProcess(a) }
func (a staticVecMix) NewWireProcess() WireProcess {
	return &staticVecMixProc{vecMixProc{rounds: a.rounds}}
}
func (a staticVecMix) NewVecProcess() VecProcess {
	return &staticVecMixVec{vecMixVec{rounds: a.rounds}}
}

type staticVecMixProc struct{ vecMixProc }

func (p *staticVecMixProc) Output() []byte { return staticOutTable[p.state&15] }

type staticVecMixVec struct{ vecMixVec }

func (p *staticVecMixVec) OutputVec(b int) []byte { return staticOutTable[p.state[b]&15] }

// TestVecAllocFloors pins the absolute allocation contract of the
// lane-vectorized round kernel, exactly as TestSteadyStateAllocFloors
// does for the scalar one: a warm batch stepping a ResetVecProcess
// algorithm back to back allocates NOTHING per run — the per-node SoA
// process table resets in place, the row staging writes straight into
// the reused slabs, and outputs land in the double-buffered arena. The
// fault-armed shape must hold the same floor: the lane mask and
// pre-step done snapshot are per-worker scratch, not per-run
// allocations. Skipped under -race, whose instrumentation changes
// allocation counts.
func TestVecAllocFloors(t *testing.T) {
	in := mustInstance(t, graph.Cycle(256))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(29)
	trial := 0

	const width = 8
	shapes := []struct {
		name string
		fp   *FaultPlan
	}{
		{"fault-free", nil},
		{"faulty", &FaultPlan{Seed: 31, Drop: 0.1, CrashP: 0.05, CrashFrom: 2}},
	}
	for _, shape := range shapes {
		bt := plan.NewBatch(width)
		draws := make([]localrand.Draw, width)
		runBatch := func() {
			for i := range draws {
				draws[i] = space.Draw(uint64(trial))
				trial++
			}
			if _, err := bt.Run(in, staticVecMix{vecMix{rounds: 6}}, draws, RunOptions{Fault: shape.fp}); err != nil {
				t.Fatal(err)
			}
		}
		runBatch()
		runBatch() // warm both arena buffers and the pooled process table
		if bt.vecAlgo == nil {
			t.Fatal("vector path not armed for the alloc floor")
		}
		if got := testing.AllocsPerRun(50, runBatch); got != 0 {
			t.Errorf("%s: warm vectorized batched run allocates %.1f/op; want exactly 0", shape.name, got)
		}
	}
}

// stripReset wraps a wire algorithm so its processes lose the
// ResetProcess extension: the pooling gate's control group.
type stripReset struct{ inner WireAlgorithm }

func (a stripReset) Name() string        { return a.inner.Name() }
func (a stripReset) MsgWords(d int) int  { return a.inner.MsgWords(d) }
func (a stripReset) NewProcess() Process { return NewLegacyProcess(a) }
func (a stripReset) NewWireProcess() WireProcess {
	return plainProc{a.inner.NewWireProcess()}
}

// plainProc hides the concrete process behind the bare WireProcess
// method set, so the ResetProcess type assertion fails.
type plainProc struct{ WireProcess }

// TestProcessPoolingCutsAllocs enforces the ResetProcess contract: on an
// algorithm whose processes implement it, back-to-back runs of one batch
// reset and reuse the per-(node, lane) process table, so the per-trial
// allocation count must drop measurably against the identical algorithm
// with the extension stripped — at byte-identical outputs and Stats.
// Skipped under -race, whose instrumentation changes allocation counts.
func TestProcessPoolingCutsAllocs(t *testing.T) {
	in := mustInstance(t, graph.Cycle(256))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(11)
	const width = 4
	algo := wireMix{rounds: 4}

	// Equivalence first: pooled reuse must not change a byte.
	pooledBt := plan.NewBatch(width)
	plainBt := plan.NewBatch(width)
	for rep := 0; rep < 3; rep++ {
		draws := drawRange(space, rep*width, width)
		pooled, err := pooledBt.Run(in, algo, draws, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := plainBt.Run(in, stripReset{inner: algo}, draws, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for b := range draws {
			expectSameResult(t, fmt.Sprintf("rep %d lane %d pooled vs plain", rep, b), plain[b], pooled[b])
		}
	}

	trial := 0
	measure := func(bt *Batch, a MessageAlgorithm) float64 {
		draws := make([]localrand.Draw, width)
		run := func() {
			for i := range draws {
				draws[i] = space.Draw(uint64(1000 + trial))
				trial++
			}
			if _, err := bt.Run(in, a, draws, RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm slabs and the process table
		return testing.AllocsPerRun(20, run) / width
	}
	pooledAllocs := measure(pooledBt, algo)
	plainAllocs := measure(plainBt, stripReset{inner: algo})
	t.Logf("message allocs per trial: pooled %.1f, unpooled %.1f", pooledAllocs, plainAllocs)
	if pooledAllocs > 0.75*plainAllocs {
		t.Errorf("process pooling allocates %.1f per trial vs %.1f unpooled; want ≥ 25%% fewer", pooledAllocs, plainAllocs)
	}
}

// TestWireMessageZeroAllocsPerRound enforces the wire-format acceptance
// contract: the message round loop on the wire core allocates nothing
// per round. Per-run costs are unavoidable (process table, result
// slices), so the gate compares trials whose only difference is the
// round count — 4 versus 36 rounds — on a reusable engine and batch: if
// any allocation happened per round, the longer trial would show 32
// rounds' worth more. Skipped under -race, whose instrumentation changes
// allocation counts.
func TestWireMessageZeroAllocsPerRound(t *testing.T) {
	in := mustInstance(t, graph.Cycle(256))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(7)
	plans := []struct {
		name  string
		trial func(rounds, trial int)
	}{
		{"pooled", func() func(rounds, trial int) {
			eng := plan.NewEngine()
			return func(rounds, trial int) {
				d := space.Draw(uint64(trial))
				if _, err := eng.Run(in, wireMix{rounds: rounds}, &d, RunOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}()},
		{"batched", func() func(rounds, trial int) {
			bt := plan.NewBatch(8)
			draws := make([]localrand.Draw, 8)
			return func(rounds, trial int) {
				for i := range draws {
					draws[i] = space.Draw(uint64(trial*8 + i))
				}
				if _, err := bt.Run(in, wireMix{rounds: rounds}, draws, RunOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}()},
	}
	for _, p := range plans {
		trial := 0
		p.trial(36, trial) // warm slabs at the larger layout
		measure := func(rounds int) float64 {
			return testing.AllocsPerRun(30, func() {
				p.trial(rounds, trial)
				trial++
			})
		}
		short := measure(4)
		long := measure(36)
		t.Logf("%s wire message allocs/op: %.1f at 4 rounds, %.1f at 36 rounds", p.name, short, long)
		if long != short {
			t.Errorf("%s wire message path allocates per round: %.1f allocs/op at 4 rounds vs %.1f at 36 (want equal)",
				p.name, short, long)
		}
	}
}

// TestFaultPlanValidateAllocFree pins Validate's success path at zero
// allocations: every run entry point calls it, and the 0-alloc floors
// above hold only if a valid plan costs nothing.
func TestFaultPlanValidateAllocFree(t *testing.T) {
	f := &FaultPlan{Seed: 1, Drop: 0.05, Delay: 0.05, CrashP: 0.01, CrashFrom: 2, CrashUntil: 9}
	if got := testing.AllocsPerRun(100, func() {
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Validate on a valid plan allocates %.0f/op; want 0", got)
	}
}
