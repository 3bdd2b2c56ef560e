package local

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"rlnc/internal/graph"
	"rlnc/internal/localrand"
)

// This file is the engine's fault seam: FaultPlan describes lossy links
// (per-delivery drop and one-round delay), node crash/recovery schedules,
// and mid-run topology surgery, and the round core applies the plan as a
// receiver-side pass over the wire slabs — the fixed-width [slot][lane]
// send state of batch.go — rather than as a separate transport. Every
// execution shape honors the same plan byte-identically: the unsharded
// Batch (and Engine, its width-1 case), the in-process Sharded, and the
// shard-worker processes, which receive the plan inside runSpec
// (remote.go) and rebuild identical fault state from it.
//
// Determinism is positional. All fault decisions come from a dedicated
// localrand.FaultTape — a pure function of event coordinates, never a
// consumed stream — keyed by shape-invariant quantities only: the round,
// the receiver's GLOBAL directed slot (Topology.Slots is global even on a
// shard's compacted window), and the lane's fault identity (its draw
// seed, which survives the process boundary as runSpec.Draws). Batch
// width, shard count, worker count, and iteration order therefore cannot
// perturb a faulty run, which is what lets the shardtest differential pin
// faulty sharded runs lane-byte-identical to faulty unsharded ones.
//
// A nil (or all-zero) plan is provably free: runVec disarms the fault
// state and roundPass dispatches to the exact pre-fault loop.

// FaultPlan describes the faults injected into an execution. The zero
// value injects nothing and runs the engine's unperturbed fast path; a
// plan is armed per run, either through RunOptions.Fault or as an
// executor default (Batch.SetFault / Sharded.SetFault), with the run
// option taking precedence.
type FaultPlan struct {
	// Seed identifies the fault tape. Equal seeds reproduce equal faults
	// on every execution shape; distinct seeds give independent fault
	// patterns. The fault tape is independent of the algorithms' tape
	// spaces, so arming a plan never perturbs Rand(A) draws.
	Seed uint64
	// Drop is the per-delivery loss probability of a lossy link: each
	// (round, receiver port, lane) delivery is lost independently with
	// this probability, decided on the receiver side before the message
	// is counted or read.
	Drop float64
	// Delay is the probability that a surviving delivery is held one
	// round: the message is removed from the current round and delivered
	// in the next — unless a fresh message occupies the same port then,
	// in which case the stale held message is discarded (fresh wins).
	Delay float64
	// CrashP selects each (node, lane) pair for crashing independently
	// with this probability. A selected node runs normally until
	// CrashFrom, then goes down: it neither reads nor counts deliveries,
	// stages no sends, and does not step.
	CrashP float64
	// CrashFrom is the first round a selected node is down (values < 1
	// mean round 1). Messages the node staged before crashing still
	// deliver — crashes take effect at round boundaries.
	CrashFrom int
	// CrashUntil, when positive, is the recovery round: a crashed node
	// resumes stepping at this round with its pre-crash state frozen in
	// place. Zero means crashed nodes never return; they are finalized
	// with their frozen output so the halting consensus can complete.
	CrashUntil int
	// Surgery lists mid-run topology edits: from EdgeCut.Round onward the
	// edge {U, Z} carries no messages in either direction. CutForSubdivision
	// derives entries that model graph.SubdivideTwice on the live run.
	Surgery []EdgeCut
}

// EdgeCut severs one edge of the running topology from a given round on:
// both directed slots of {U, Z} deliver nothing at rounds >= Round. It is
// the engine-side shadow of an offline graph surgery — the structural
// edit itself (fresh relay nodes, rebuilt CSR) happens on a new graph,
// while the running plan sees the direct edge go dark.
type EdgeCut struct {
	Round int
	U, Z  int
}

// Enabled reports whether the plan injects anything; nil and zero plans
// run the engine's unperturbed fast path.
func (f *FaultPlan) Enabled() bool {
	return f != nil && (f.Drop > 0 || f.Delay > 0 || f.CrashP > 0 || len(f.Surgery) > 0)
}

// ErrFaultPlan marks a fault plan rejected by Validate.
var ErrFaultPlan = errors.New("local: invalid fault plan")

// Validate reports whether the plan's rates and rounds are in range: the
// drop, delay and crash rates are probabilities in [0, 1], and the crash
// rounds are not negative. A nil plan is valid, and a valid plan
// allocates nothing. Entry points that build a plan from user input (the
// CLI flags, the serve job spec) call it before arming the plan, so an
// out-of-range rate is an intake error rather than a run whose checks
// fail; the library entry points check the plan a run would obey —
// Engine.Run, Batch.Run/RunInstances and Sharded.Run/RunInstances return
// the error, and mc.Executor's Run and Mean panic with it.
func (f *FaultPlan) Validate() error {
	if f == nil {
		return nil
	}
	var bad []string
	for _, r := range []struct {
		name string
		p    float64
	}{{"drop", f.Drop}, {"delay", f.Delay}, {"crash", f.CrashP}} {
		if !(r.p >= 0 && r.p <= 1) { // NaN fails both comparisons
			bad = append(bad, fmt.Sprintf("%s rate %v outside [0, 1]", r.name, r.p))
		}
	}
	if f.CrashFrom < 0 {
		bad = append(bad, fmt.Sprintf("crash-from round %d is negative", f.CrashFrom))
	}
	if f.CrashUntil < 0 {
		bad = append(bad, fmt.Sprintf("crash-until round %d is negative", f.CrashUntil))
	}
	if bad != nil {
		return fmt.Errorf("%w: %s", ErrFaultPlan, strings.Join(bad, "; "))
	}
	return nil
}

// CutForSubdivision applies graph.SubdivideTwice to the edge {u, z} and
// returns both halves of the surgery: the EdgeCut that models the edit on
// the running topology (from `round` on, the direct edge carries nothing
// — traffic now traverses the two fresh degree-2 relays, which the
// original node set cannot reach within the old round horizon), and the
// SubdivisionResult carrying the post-surgery graph for offline analysis
// or a follow-up run. It errors when {u, z} is not an edge.
func CutForSubdivision(g *graph.Graph, round, u, z int) (EdgeCut, *graph.SubdivisionResult, error) {
	res, err := g.SubdivideTwice(u, z)
	if err != nil {
		return EdgeCut{}, nil, err
	}
	return EdgeCut{Round: round, U: u, Z: z}, res, nil
}

// Fault-tape channels: each fault kind draws from its own coordinate
// namespace so drop, delay, and crash decisions are independent.
const (
	faultDrop uint64 = iota + 1
	faultDelay
	faultCrash
)

// neverSevered marks a slot no surgery touches.
const neverSevered = int32(math.MaxInt32)

// severedTable flattens a surgery schedule into a per-GLOBAL-slot
// first-dead round: entry s is the earliest round from which the directed
// slot s delivers nothing (neverSevered otherwise). Both directions of
// each cut edge are severed. Keying by receiver-global slot makes the
// table identical on every shard and worker, because Topology.Slots
// returns global coordinates even on compacted windows.
func severedTable(topo *graph.Topology, cuts []EdgeCut, prev []int32) []int32 {
	t := sliceFor(prev, topo.NumSlots())
	for i := range t {
		t[i] = neverSevered
	}
	for _, c := range cuts {
		round := c.Round
		if round < 1 {
			round = 1
		}
		sever := func(u, z int) {
			// Kill z's reception from u: z's own directed slot toward u.
			lo, hi := topo.Slots(z)
			for s := lo; s < hi; s++ {
				if int(topo.Nbrs[s]) == u && int32(round) < t[s] {
					t[s] = int32(round)
				}
			}
		}
		sever(c.U, c.Z)
		sever(c.Z, c.U)
	}
	return t
}

// SetFault installs the batch's default fault plan: the effective plan of
// a run is RunOptions.Fault when non-nil, this default otherwise. Passing
// nil (or a zero plan) restores the fault-free fast path. Trial harnesses
// that cannot thread RunOptions through an algorithm's own entry points
// (construct.RetryColoring builds its own options) arm faults here.
func (bt *Batch) SetFault(f *FaultPlan) { bt.defFault = f }

// SetFault installs the sharded executor's default fault plan, mirroring
// Batch.SetFault; the Unsharded companion batch inherits it.
func (s *Sharded) SetFault(f *FaultPlan) {
	s.defFault = f
	if s.full != nil {
		s.full.SetFault(f)
	}
}

// SetFault installs the engine's default fault plan (Batch.SetFault of
// its one-lane core).
func (e *Engine) SetFault(f *FaultPlan) { e.bt.SetFault(f) }

// effectiveFault resolves the plan one run obeys.
func (bt *Batch) effectiveFault(opts RunOptions) *FaultPlan {
	if opts.Fault != nil {
		return opts.Fault
	}
	return bt.defFault
}

// effectiveFault resolves the plan one sharded run obeys.
func (s *Sharded) effectiveFault(opts RunOptions) *FaultPlan {
	if opts.Fault != nil {
		return opts.Fault
	}
	return s.defFault
}

// installFault arms (or disarms) the batch's per-run fault state, taking
// lane identities from the run's draws: lane b's fault identity is
// draws[b].Seed(), the same word runSpec ships to shard workers, and 0
// for deterministic lanes. Called once per execution vector, before the
// slabs are sized; a disabled plan leaves roundPass on the exact
// pre-fault path.
func (bt *Batch) installFault(f *FaultPlan, draws []localrand.Draw, k int) {
	if !f.Enabled() {
		bt.fault = nil
		return
	}
	bt.flane = sliceFor(bt.flane, k)
	for b := 0; b < k; b++ {
		if draws != nil {
			bt.flane[b] = draws[b].Seed()
		} else {
			bt.flane[b] = 0
		}
	}
	bt.armFault(f)
}

// installFaultSeeds is installFault from shipped draw seeds — the worker
// side of the process boundary, where draws exist only as runSpec words.
func (bt *Batch) installFaultSeeds(f *FaultPlan, seeds []uint64, k int) {
	if !f.Enabled() {
		bt.fault = nil
		return
	}
	bt.flane = sliceFor(bt.flane, k)
	for b := 0; b < k; b++ {
		if seeds != nil {
			bt.flane[b] = seeds[b]
		} else {
			bt.flane[b] = 0
		}
	}
	bt.armFault(f)
}

// armFault finalizes an enabled plan's run state: the fault tape and the
// severed-slot table (surgery only).
func (bt *Batch) armFault(f *FaultPlan) {
	bt.fault = f
	bt.ftape = localrand.NewFaultTape(f.Seed)
	if len(f.Surgery) > 0 {
		bt.fsev = severedTable(bt.plan.topo, f.Surgery, bt.fsev)
	} else {
		bt.fsev = nil
	}
}

// ensureHeldSlabs sizes the one-round retention slabs a Delay plan needs,
// mirroring the main slabs' [slot][lane] layout; cleared on every run so
// a previous run's holds cannot leak into this one. Plans without Delay
// never allocate them.
func (bt *Batch) ensureHeldSlabs(slots, B int) {
	if bt.fault == nil || bt.fault.Delay <= 0 {
		return
	}
	bt.heldLens = sliceFor(bt.heldLens, slots*B)
	clear(bt.heldLens)
	bt.heldWords = sliceFor(bt.heldWords, bt.totalW*B)
	if bt.useRefs {
		bt.heldRefs = sliceFor(bt.heldRefs, slots*B)
		clear(bt.heldRefs)
	} else {
		bt.heldRefs = nil
	}
}

// faultPass is roundPass under an armed fault plan: the identical fused
// deliver + step walk, with the plan applied on the receiver side before
// anything is counted or read. Per (node, lane), a crashed pair skips
// reading (and counting) entirely; otherwise each arriving port first
// resolves last round's held message (delivered now unless a fresh
// message occupies the port — fresh wins), then the surgery table, then
// the drop and delay draws. Suppression happens strictly before the
// delivered count, so Stats stay shape-identical. All slab writes — a
// receiver zeroing curLens at its sender's slot included — touch slots
// this worker is the unique reader of, so the pass stays data-race-free
// under the same contract as roundPass.
//
// Like roundPass, the walk is slot-major: per node, the crash draws
// resolve once per lane, then one pass over the RevSlot window applies
// the suppression chain to each slot's contiguous [s*B, s*B+k) lane
// range, then the outgoing slots clear contiguously, then the lanes
// step. Every fault decision is a pure positional function of
// (channel, round, global slot, lane identity), so the iteration-order
// change cannot perturb a single draw — outputs are byte-identical to
// the lane-major walk. Since only the lane identity varies across a
// node's crash draws or a slot's drop and delay draws, each of those
// groups walks its fault-tape prefix once (localrand.FaultTape.Prefix)
// and finishes each lane's draw with one mixing step. Down and dead
// lanes skip the suppression chain entirely (held-slab state included),
// exactly as they skipped the whole per-lane walk before.
func (bt *Batch) faultPass(w, vlo, vhi int) {
	topo := bt.plan.topo
	k, B, round := bt.rk, bt.block, bt.rround
	f, ftape, fids, sev := bt.fault, bt.ftape, bt.flane, bt.fsev
	var heldLens []int32
	var heldWords []uint64
	var heldRefs []Message
	if f.Delay > 0 {
		heldLens, heldWords, heldRefs = bt.heldLens, bt.heldWords, bt.heldRefs
	}
	crashFrom := f.CrashFrom
	if crashFrom < 1 {
		crashFrom = 1
	}
	crashNow := f.CrashP > 0 && round >= crashFrom &&
		(f.CrashUntil == 0 || round < f.CrashUntil)
	msgRow := bt.wkMsgs[w][:k]
	finRow := bt.wkFin[w][:k]
	clear(msgRow)
	clear(finRow)
	in, out := &bt.inboxes[w], &bt.outboxes[w]
	bt.bindInbox(in, bt.curLens, bt.curWords, bt.curRefs)
	bt.bindOutbox(out, bt.nextLens, bt.nextWord, bt.nextRefs)
	// The stage counters land in the worker's row but are never merged:
	// fault accounting is receiver-side (suppression makes staged ≠
	// delivered), and the row is re-zeroed at the next run's init.
	out.stage = bt.wkStage[w]
	curLens, nextLens, nextRefs := bt.curLens, bt.nextLens, bt.nextRefs
	curWords, curRefs := bt.curWords, bt.curRefs
	alive, done, procs := bt.alive, bt.done, bt.procs
	base := bt.slotBase
	offW, capW := bt.offW, bt.capW
	del := bt.wkDel[w][:k]
	down := bt.wkDown[w][:k]
	// The vector path shares the whole suppression walk and replaces only
	// the per-lane step tail: crashed lanes become the node's lane mask,
	// and one StepVec call advances the rest.
	vec := bt.vecAlgo != nil
	var vin *InboxVec
	var vout *OutboxVec
	var prev, mask []bool
	var vprocs []VecProcess
	if vec {
		vin, vout = &bt.vinboxes[w], &bt.voutboxes[w]
		bt.bindInboxVec(vin, k)
		bt.bindOutboxVec(vout, k, bt.wkStage[w], bt.nextLens, bt.nextWord)
		prev = bt.wkPrev[w][:k]
		mask = bt.wkMask[w][:k]
		vprocs = bt.vprocs
	}
	for v := vlo; v < vhi; v++ {
		lo, hi := topo.Slots(v) // global coordinates, every shape
		deg := hi - lo
		rev := bt.revTab[lo-base : hi-base]
		in.deg, in.slot = deg, rev
		out.deg, out.slotLo = deg, lo-base
		// Crash draws, once per lane. The round coordinate is pinned to 0
		// so one (node, lane) pair crashes in every round of its window.
		// The (channel, round, node) prefix is walked once per node, at
		// the first lane that draws.
		var crashPre localrand.FaultPrefix
		havePre := false
		for b := 0; b < k; b++ {
			down[b] = false
			if !crashNow || !alive[b] {
				continue
			}
			if !havePre {
				crashPre, havePre = ftape.Prefix(faultCrash, 0, uint64(v)), true
			}
			down[b] = crashPre.Bernoulli(f.CrashP, fids[b])
		}
		clear(del)
		// The suppression walk, slot-major: each receive slot's k lanes
		// are contiguous in the lens slab. Down and dead lanes are
		// skipped — their held-slab state must stay untouched.
		for pi, s := range rev {
			li0 := int(s) * B
			// The directed edge is keyed by the receiver's own global
			// slot: lo+pi is v's port pi in every execution shape.
			gs := uint64(lo + pi)
			severed := sev != nil && round >= int(sev[lo+pi])
			// The drop and delay draws of one slot share (channel, round,
			// slot) and differ only in the lane; each prefix is walked at
			// the first lane that needs it, so a slot with no arrival pays
			// nothing and a one-lane run pays what a full draw costs.
			var dropPre, delayPre localrand.FaultPrefix
			haveDrop, haveDelay := false, false
			for b := 0; b < k; b++ {
				if !alive[b] || down[b] {
					continue
				}
				li := li0 + b
				if heldLens != nil {
					if hl := heldLens[li]; hl > 0 {
						if curLens[li] == 0 {
							curLens[li] = hl
							if nw := int(hl) - 1; nw > 0 {
								wb := int(offW[s])*B + int(capW[s])*b
								copy(curWords[wb:wb+nw], heldWords[wb:wb+nw])
							}
							if heldRefs != nil {
								curRefs[li] = heldRefs[li]
							}
						}
						heldLens[li] = 0
						if heldRefs != nil {
							heldRefs[li] = nil
						}
					}
				}
				if curLens[li] == 0 {
					continue
				}
				if severed {
					curLens[li] = 0
					continue
				}
				if f.Drop > 0 {
					if !haveDrop {
						dropPre, haveDrop = ftape.Prefix(faultDrop, uint64(round), gs), true
					}
					if dropPre.Bernoulli(f.Drop, fids[b]) {
						curLens[li] = 0
						continue
					}
				}
				if heldLens != nil && !haveDelay {
					delayPre, haveDelay = ftape.Prefix(faultDelay, uint64(round), gs), true
				}
				if heldLens != nil && delayPre.Bernoulli(f.Delay, fids[b]) {
					hl := curLens[li]
					heldLens[li] = hl
					if nw := int(hl) - 1; nw > 0 {
						wb := int(offW[s])*B + int(capW[s])*b
						copy(heldWords[wb:wb+nw], curWords[wb:wb+nw])
					}
					if heldRefs != nil {
						heldRefs[li] = curRefs[li]
					}
					curLens[li] = 0
					continue
				}
				del[b]++
			}
		}
		// Reset the node's outgoing slots exactly as roundPass does — one
		// contiguous clear over the node's consecutive slot window; a
		// down node thereby sends nothing next round, and neither dead
		// lanes' nor the unused capacity lanes' stale state is ever read.
		clear(nextLens[(lo-base)*B : (hi-base)*B])
		if nextRefs != nil {
			clear(nextRefs[(lo-base)*B : (hi-base)*B])
		}
		if !vec {
			for b := 0; b < k; b++ {
				if !alive[b] {
					continue
				}
				msgRow[b] += int64(del[b])
				if done[v*B+b] {
					continue
				}
				if down[b] {
					if f.CrashUntil == 0 {
						// Permanent crash: finalize with the frozen state so the
						// run's halting consensus can still complete; Output()
						// reports whatever the process last committed to.
						done[v*B+b] = true
						finRow[b]++
					}
					continue
				}
				in.b, out.b = b, b
				if procs[v*B+b].Step(round, in, out) {
					done[v*B+b] = true
					finRow[b]++
				}
			}
			continue
		}
		// Vec step tail: the same per-lane resolution — delivered credit,
		// permanent-crash finalization (before the pre-step snapshot, so
		// the diff below cannot double-count it) — folded into a lane
		// mask, then one StepVec over the remaining lanes.
		vin.deg, vin.slot = deg, rev
		vout.deg, vout.slotLo = deg, lo-base
		doneRow := done[v*B : v*B+k]
		anyMask, left := false, 0
		for b := 0; b < k; b++ {
			mask[b] = false
			if !alive[b] {
				continue
			}
			msgRow[b] += int64(del[b])
			if doneRow[b] {
				continue
			}
			if down[b] {
				mask[b] = true
				anyMask = true
				if f.CrashUntil == 0 {
					doneRow[b] = true
					finRow[b]++
				}
				continue
			}
			left++
		}
		if left == 0 {
			continue
		}
		copy(prev, doneRow)
		vin.mask = nil
		if anyMask {
			vin.mask = mask
		}
		vprocs[v].StepVec(round, vin, vout, doneRow)
		for b := 0; b < k; b++ {
			if doneRow[b] && !prev[b] {
				finRow[b]++
			}
		}
	}
}
