package serve

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"rlnc/internal/exp"
	"rlnc/internal/graph"
	"rlnc/internal/local"
	"rlnc/internal/report"
)

// JobSpec is the body of POST /v1/runs: one experiment job (the E1–E17
// suite by registry ID) or one algorithm job (a registered
// message-algorithm key run as a Monte-Carlo trial sweep over a graph
// family). Exactly one of Experiment and Algorithm must be set.
//
// A job's identity is its content: the normalized spec canonicalizes to
// a deterministic byte form (internal/report's Canon) whose hash is the
// run ID, so resubmitting the same configuration — whatever the JSON
// field order or whitespace — resolves to the same run and is served
// from the run store without recompute.
type JobSpec struct {
	// Experiment is an experiment registry ID ("E2"), normalized to its
	// canonical capitalization at validation.
	Experiment string `json:"experiment,omitempty"`
	// Algorithm describes an algorithm job; nil for experiment jobs.
	Algorithm *AlgoSpec `json:"algorithm,omitempty"`
	// Quick selects the reduced trial counts and sweeps experiments use
	// in CI (`rlnc run -quick`). Ignored for algorithm jobs.
	Quick bool `json:"quick,omitempty"`
	// Seed feeds every tape space of the run; defaults to 1, the CLI
	// default, when omitted.
	Seed uint64 `json:"seed"`
	// Shards, when > 1, runs message-algorithm trial loops on a sharded
	// engine of that many shards, exactly like `rlnc run -shards N`.
	Shards int `json:"shards,omitempty"`
	// Fault arms a fault plan on every trial executor of the run; nil
	// runs fault-free.
	Fault *FaultSpec `json:"fault,omitempty"`
}

// AlgoSpec names a registered message algorithm and the instance to run
// it on: `POST /v1/runs` algorithm jobs measure mean rounds and message
// counts of Trials independent executions on the family graph.
type AlgoSpec struct {
	// Key is a remote-algorithm registry key (GET /v1/algorithms lists
	// them), e.g. "retry-coloring" or "luby-mis".
	Key string `json:"key"`
	// Params are the algorithm's flat parameters, exactly as the
	// shard-worker protocol ships them (e.g. [3, 4] for retry-coloring's
	// (q, t)).
	Params []int64 `json:"params,omitempty"`
	// Family is a graph family name (GET /v1/families lists them).
	Family string `json:"family"`
	// N is the family's size parameter (nodes for cycle/path/..., side
	// length for grid/torus, depth for tree, dimension for hypercube).
	N int `json:"n"`
	// Trials is the Monte-Carlo trial count, bounded by the server's
	// MaxTrials limit.
	Trials int `json:"trials"`
}

// FaultSpec mirrors local.FaultPlan's CLI-exposed knobs in JSON.
type FaultSpec struct {
	// Seed seeds the dedicated fault tape (decoupled from the job seed).
	Seed uint64 `json:"seed,omitempty"`
	// Drop and Delay are per-message probabilities in [0, 1].
	Drop  float64 `json:"drop,omitempty"`
	Delay float64 `json:"delay,omitempty"`
	// Crash is the per-node per-round crash probability in [0, 1];
	// CrashFrom is the first round crashes may fire, CrashUntil the
	// recovery round (0: permanent).
	Crash      float64 `json:"crash,omitempty"`
	CrashFrom  int     `json:"crashFrom,omitempty"`
	CrashUntil int     `json:"crashUntil,omitempty"`
}

// plan converts the spec to the engine's fault plan; nil for a nil or
// all-zero spec, which runs bit-identically to fault-free.
func (f *FaultSpec) plan() *local.FaultPlan {
	if f == nil || (f.Drop == 0 && f.Delay == 0 && f.Crash == 0) {
		return nil
	}
	return f.engine()
}

// engine is the spec's field-for-field engine fault plan.
func (f *FaultSpec) engine() *local.FaultPlan {
	return &local.FaultPlan{
		Seed:       f.Seed,
		Drop:       f.Drop,
		Delay:      f.Delay,
		CrashP:     f.Crash,
		CrashFrom:  f.CrashFrom,
		CrashUntil: f.CrashUntil,
	}
}

// Limits bounds what a job may ask of the daemon. The zero value means
// "use defaults".
type Limits struct {
	// MaxTrials caps an algorithm job's trial count (default 100000).
	MaxTrials int
	// MaxNodes caps the built instance's node count (default 65536).
	MaxNodes int
	// MaxShards caps the requested shard count (default 64).
	MaxShards int
}

// withDefaults fills unset limits.
func (l Limits) withDefaults() Limits {
	if l.MaxTrials <= 0 {
		l.MaxTrials = 100000
	}
	if l.MaxNodes <= 0 {
		l.MaxNodes = 65536
	}
	if l.MaxShards <= 0 {
		l.MaxShards = 64
	}
	return l
}

// errJob marks a validation failure — the client's fault, reported as
// 422 — as opposed to an execution failure.
var errJob = errors.New("invalid job")

// jobErrorf builds a validation error.
func jobErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errJob, fmt.Sprintf(format, args...))
}

// normalize validates the spec against the experiment and algorithm
// registries and the limits, and rewrites it into its canonical form
// (default seed applied, experiment ID capitalization fixed, shards<2
// collapsed to 0, zero fault plans dropped). Two specs that normalize
// equal are the same run by definition; everything content addressing
// hashes is set here.
func (j *JobSpec) normalize(lim Limits) error {
	lim = lim.withDefaults()
	if (j.Experiment == "") == (j.Algorithm == nil) {
		return jobErrorf("exactly one of \"experiment\" and \"algorithm\" must be set")
	}
	if j.Seed == 0 {
		j.Seed = 1 // the CLI's -seed default
	}
	if j.Shards < 0 {
		return jobErrorf("shards %d must not be negative", j.Shards)
	}
	if j.Shards > lim.MaxShards {
		return jobErrorf("shards %d exceeds the limit %d", j.Shards, lim.MaxShards)
	}
	if j.Shards < 2 {
		j.Shards = 0 // 0 and 1 both mean "unsharded"; collapse for the hash
	}
	if f := j.Fault; f != nil {
		if err := f.engine().Validate(); err != nil {
			return jobErrorf("fault: %v", err)
		}
		if f.Drop == 0 && f.Delay == 0 && f.Crash == 0 {
			j.Fault = nil // the zero plan is fault-free by contract
		}
	}
	if j.Experiment != "" {
		e, ok := exp.ByID(j.Experiment)
		if !ok {
			return jobErrorf("unknown experiment %q (GET /v1/experiments lists the suite)", j.Experiment)
		}
		j.Experiment = e.ID() // canonical capitalization
		return nil
	}
	a := j.Algorithm
	j.Quick = false // quick mode is an experiment knob
	if a.Key == "" {
		return jobErrorf("algorithm.key must be set")
	}
	if !slices.Contains(local.RegisteredRemoteAlgorithms(), a.Key) {
		return jobErrorf("unknown algorithm key %q (GET /v1/algorithms lists the registry)", a.Key)
	}
	if _, err := local.BuildRemoteAlgorithm(a.Key, a.Params); err != nil {
		return jobErrorf("algorithm params rejected: %v", err)
	}
	if !slices.Contains(graph.Families(), a.Family) {
		return jobErrorf("unknown graph family %q (GET /v1/families lists them)", a.Family)
	}
	if a.Trials < 1 {
		return jobErrorf("trials %d must be at least 1", a.Trials)
	}
	if a.Trials > lim.MaxTrials {
		return jobErrorf("trials %d exceeds the limit %d", a.Trials, lim.MaxTrials)
	}
	g, err := buildFamily(a.Family, a.N)
	if err != nil {
		return jobErrorf("%v", err)
	}
	if g.N() > lim.MaxNodes {
		return jobErrorf("%s n=%d builds %d nodes, exceeding the limit %d",
			a.Family, a.N, g.N(), lim.MaxNodes)
	}
	if j.Shards > g.N() {
		return jobErrorf("shards %d exceeds the %d-node instance", j.Shards, g.N())
	}
	return nil
}

// maxFamilyParam bounds the size parameter fed to a family generator
// before it runs: exponential families (tree depth, hypercube
// dimension) would overflow memory long before the node-count limit
// could reject them.
const maxFamilyParam = 1 << 20

// buildFamily builds the named family, converting generator panics
// (bad sizes) into errors so a hostile size parameter cannot take the
// daemon down.
func buildFamily(family string, n int) (g *graph.Graph, err error) {
	if n < 0 || n > maxFamilyParam {
		return nil, fmt.Errorf("family %s size %d outside [0, %d]", family, n, maxFamilyParam)
	}
	if family == "tree" || family == "hypercube" {
		// Node counts are exponential in the parameter; pre-bound so the
		// generator cannot allocate terabytes before the limit check.
		if n > 20 {
			return nil, fmt.Errorf("family %s size %d too deep (max 20)", family, n)
		}
	}
	if family == "grid" || family == "torus" {
		if n > 4096 {
			return nil, fmt.Errorf("family %s side %d too large (max 4096)", family, n)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("family %s rejects size %d: %v", family, n, r)
		}
	}()
	return graph.Family(family, n)
}

// canon renders the normalized spec's canonical encoding — the byte
// form the run ID hashes. Field enumeration is exhaustive by
// construction: every JobSpec field that can change a run's output has
// a line here, and nothing else does.
func (j *JobSpec) canon() *report.Canon {
	var c report.Canon
	c.PutUint("seed", j.Seed)
	c.PutInt("shards", int64(j.Shards))
	if j.Experiment != "" {
		c.PutString("kind", "experiment")
		c.PutString("experiment", j.Experiment)
		c.PutBool("quick", j.Quick)
	} else {
		c.PutString("kind", "algorithm")
		c.PutString("algorithm.key", j.Algorithm.Key)
		c.PutInts("algorithm.params", j.Algorithm.Params)
		c.PutString("family", j.Algorithm.Family)
		c.PutInt("n", int64(j.Algorithm.N))
		c.PutInt("trials", int64(j.Algorithm.Trials))
	}
	if f := j.Fault; f != nil {
		c.PutUint("fault.seed", f.Seed)
		c.PutFloat("fault.drop", f.Drop)
		c.PutFloat("fault.delay", f.Delay)
		c.PutFloat("fault.crash", f.Crash)
		c.PutInt("fault.crashFrom", int64(f.CrashFrom))
		c.PutInt("fault.crashUntil", int64(f.CrashUntil))
	}
	return &c
}

// ID returns the content-addressed run ID of a normalized spec.
func (j *JobSpec) ID() string { return j.canon().Hash() }

// Describe renders a one-line human summary for listings and logs.
func (j *JobSpec) Describe() string {
	var b strings.Builder
	if j.Experiment != "" {
		fmt.Fprintf(&b, "experiment %s", j.Experiment)
		if j.Quick {
			b.WriteString(" (quick)")
		}
	} else {
		fmt.Fprintf(&b, "algorithm %s%v on %s n=%d × %d trials",
			j.Algorithm.Key, j.Algorithm.Params, j.Algorithm.Family, j.Algorithm.N, j.Algorithm.Trials)
	}
	fmt.Fprintf(&b, " seed=%d", j.Seed)
	if j.Shards > 1 {
		fmt.Fprintf(&b, " shards=%d", j.Shards)
	}
	if j.Fault != nil {
		fmt.Fprintf(&b, " faulty(drop=%g,delay=%g,crash=%g)", j.Fault.Drop, j.Fault.Delay, j.Fault.Crash)
	}
	return b.String()
}
