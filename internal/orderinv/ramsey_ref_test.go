package orderinv

import (
	"fmt"
	"sort"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
)

// refExtract is Extract as it was before the search state was hoisted out
// of the evaluation loop: a fresh identity slice, sort, View and output
// string per evaluation, and fresh rollback copies per candidate. It is
// the reference the hoisted search must match exactly — same U, same
// outputs, same evaluation count.
func refExtract(algo local.ViewAlgorithm, inv *Inventory, wantSize, poolSize int) (*Extraction, error) {
	if wantSize < 1 {
		return nil, fmt.Errorf("orderinv: wantSize must be positive")
	}
	var balls []orderedBall
	for _, shape := range inv.Shapes {
		for _, perm := range permutations(shape.Size) {
			balls = append(balls, orderedBall{shape: shape, perm: perm})
		}
	}
	established := make([]string, len(balls))
	establishedSet := make([]bool, len(balls))
	ext := &Extraction{}
	var u []int64
	budgetHit := false

	// consistent evaluates candidate c against the current set u, updating
	// establishment state in place (callers snapshot and roll back).
	consistent := func(c int64) bool {
		for bi, ob := range balls {
			r := ob.shape.Size
			if len(u)+1 < r {
				continue // not enough identities yet
			}
			ok := true
			forEachSubset(u, r-1, func(subset []int64) bool {
				idsSorted := append(append([]int64(nil), subset...), c)
				sort.Slice(idsSorted, func(i, j int) bool { return idsSorted[i] < idsSorted[j] })
				out := evalOnIDs(algo, ob, idsSorted)
				ext.Evaluations++
				if !establishedSet[bi] {
					established[bi] = out
					establishedSet[bi] = true
					return true
				}
				if out != established[bi] {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
		return true
	}

	var dfs func(from int64) bool
	dfs = func(from int64) bool {
		if len(u) >= wantSize {
			return true
		}
		for c := from; c <= int64(poolSize); c++ {
			if ext.Evaluations > defaultExtractBudget {
				budgetHit = true
				return false
			}
			estBackup := append([]string(nil), established...)
			setBackup := append([]bool(nil), establishedSet...)
			if consistent(c) {
				u = append(u, c)
				if dfs(c + 1) {
					return true
				}
				u = u[:len(u)-1]
			}
			copy(established, estBackup)
			copy(establishedSet, setBackup)
			if budgetHit {
				return false
			}
		}
		return false
	}
	if !dfs(1) {
		if budgetHit {
			return nil, fmt.Errorf("%w: %d evaluations, |U| reached %d of %d",
				ErrBudget, ext.Evaluations, len(u), wantSize)
		}
		return nil, fmt.Errorf("orderinv: pool of %d admits no consistent U of size %d (best effort exhausted after %d evaluations)",
			poolSize, wantSize, ext.Evaluations)
	}
	ext.U = u
	ext.Outputs = established
	return ext, nil
}

// forEachSubset enumerates size-r subsets of set, calling fn with each;
// fn returning false aborts the enumeration.
func forEachSubset(set []int64, r int, fn func([]int64) bool) {
	if r == 0 {
		fn(nil)
		return
	}
	if r > len(set) {
		return
	}
	idx := make([]int, r)
	current := make([]int64, r)
	var rec func(start, k int) bool
	rec = func(start, k int) bool {
		if k == r {
			for i := 0; i < r; i++ {
				current[i] = set[idx[i]]
			}
			return fn(current)
		}
		for i := start; i <= len(set)-(r-k); i++ {
			idx[k] = i
			if !rec(i+1, k+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// evalOnIDs runs A at the center of an ordered ball whose node identities
// are the given sorted values assigned according to the pattern.
func evalOnIDs(algo local.ViewAlgorithm, ob orderedBall, sortedIDs []int64) string {
	idArr := make([]int64, ob.shape.Size)
	for i, rank := range ob.perm {
		idArr[i] = sortedIDs[rank]
	}
	view := &local.View{
		Ball: ob.shape.Ball,
		IDs:  idArr,
		X:    make([][]byte, ob.shape.Size),
	}
	return string(algo.Output(view))
}

// refFindRingCounterexample is FindRingCounterexample before the ring
// search was shared across algorithms: per call, a fresh graph,
// assignment list and single-shot RunView per instance.
func refFindRingCounterexample(algo local.ViewAlgorithm, q, maxN int) (*Counterexample, bool) {
	l := lang.ProperColoring(q)
	for n := 3; n <= maxN; n++ {
		g := graph.Cycle(n)
		assignments := []struct {
			id   ids.Assignment
			seed uint64
		}{
			{ids.Consecutive(n), 0},
		}
		for seed := uint64(1); seed <= 6; seed++ {
			assignments = append(assignments, struct {
				id   ids.Assignment
				seed uint64
			}{ids.RandomPerm(n, seed), seed})
		}
		for _, as := range assignments {
			in := &lang.Instance{G: g, X: lang.EmptyInputs(n), ID: as.id}
			y := local.RunView(in, algo, nil)
			ok, err := l.Contains(&lang.Config{G: g, X: in.X, Y: y})
			if err == nil && !ok {
				return &Counterexample{N: n, Seed: as.seed}, true
			}
		}
	}
	return nil, false
}
