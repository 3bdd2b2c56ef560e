package exp

import (
	"fmt"

	"rlnc/internal/lang"
	"rlnc/internal/local"
)

// This file provides the controlled stand-ins for the construction
// algorithm C and decider D of Claims 3–5.
//
// PlantedSaboteur is a genuine one-round LOCAL Monte-Carlo algorithm:
// every node's input carries a planted color and a leader flag; ordinary
// nodes output their planted color, and a leader corrupts its output to
// its port-0 neighbor's planted color with probability exactly Beta,
// decided by the leader's own tape. With one leader per block, block
// failures are independent Bernoulli(Beta) events — the planted β of
// Claim 2 — and, being radius-1 local, the algorithm behaves identically
// on a block H_i and on any host graph containing H_i far from the
// surgery, which is precisely the locality the proof of Theorem 1 uses.

// Planted input encoding: [color, leaderFlag].
func plantInput(color int, leader bool) []byte {
	flag := byte(0)
	if leader {
		flag = 1
	}
	return []byte{byte(color), flag}
}

func plantedColorOf(x []byte) (int, bool) {
	if len(x) != 2 {
		return 0, false
	}
	return int(x[0]), true
}

func plantedLeader(x []byte) bool {
	return len(x) == 2 && x[1] == 1
}

// PlantedSaboteur is the construction algorithm C of the boosting
// experiments. Radius 1; Monte-Carlo.
type PlantedSaboteur struct {
	Beta float64
}

// Name implements local.ViewAlgorithm.
func (s PlantedSaboteur) Name() string { return fmt.Sprintf("planted-saboteur(β=%g)", s.Beta) }

// Radius implements local.ViewAlgorithm.
func (s PlantedSaboteur) Radius() int { return 1 }

// Output implements local.ViewAlgorithm.
func (s PlantedSaboteur) Output(v *local.View) []byte {
	color, ok := plantedColorOf(v.X[0])
	if !ok {
		return lang.EncodeColor(0)
	}
	if plantedLeader(v.X[0]) && s.Beta > 0 && v.Tape() != nil && v.Tape().Bernoulli(s.Beta) {
		// Corrupt: copy the planted color of the first neighbor.
		if v.Degree() > 0 {
			nb := int(v.Ball.G.Neighbors(0)[0])
			if nc, ok := plantedColorOf(v.X[nb]); ok {
				return lang.EncodeColor(nc)
			}
		}
	}
	return lang.EncodeColor(color)
}

// plantedBlock builds a cycle block with alternating planted colors and a
// leader at node 0. n must be even so the alternation is proper around
// the ring.
func plantedBlock(n int, startID int64) *lang.Instance {
	if n%2 != 0 {
		panic("exp: planted blocks need even length")
	}
	in := cycleInstance(n, startID)
	x := make([][]byte, n)
	for v := 0; v < n; v++ {
		x[v] = plantInput(v%2, v == 0)
	}
	in.X = x
	return in
}

// sealGluedInputs assigns planted inputs to the nodes inserted by the
// gluing surgery so that the uncorrupted planted coloring stays proper
// across every seam: each v_i gets color 2 (its neighbors u_i, w_i,
// w_{i+1} all carry colors in {0,1}) and each w_i the opposite of its
// block neighbor z_i's planted color. zColors[i] is the planted color of
// block i's anchor edge endpoint z_i.
func sealGluedInputs(x [][]byte, vNodes, wNodes []int, zColors []int) {
	for i := range vNodes {
		x[vNodes[i]] = plantInput(2, false)
		x[wNodes[i]] = plantInput(1-zColors[i], false)
	}
}

// NoisyLCLDecider is the randomized decider D of Claims 3–5 for an LCL
// language: nodes with good balls accept; a node centering a bad ball
// rejects with probability RejectProb. On the base language this decides
// with guarantee RejectProb: members are always accepted, and a
// non-member has at least one bad ball whose center rejects with
// probability ≥ RejectProb.
type NoisyLCLDecider struct {
	L          *lang.LCL
	RejectProb float64
}

// Name implements decide.Decider.
func (d *NoisyLCLDecider) Name() string {
	return fmt.Sprintf("noisy-lcl-decider(%s, p=%g)", d.L.Name(), d.RejectProb)
}

// Radius implements decide.Decider.
func (d *NoisyLCLDecider) Radius() int { return d.L.Radius }

// Verdict implements decide.Decider.
func (d *NoisyLCLDecider) Verdict(v *local.View) bool {
	bad := d.L.Bad(v.LabeledBall())
	if !bad {
		return true
	}
	return !v.Tape().Bernoulli(d.RejectProb)
}
