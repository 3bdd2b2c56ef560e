package serve

import (
	"strings"
	"testing"
)

// validAlgoJob is a baseline algorithm job every mutation test starts
// from.
func validAlgoJob() JobSpec {
	return JobSpec{
		Algorithm: &AlgoSpec{Key: "luby-mis", Family: "cycle", N: 16, Trials: 10},
		Seed:      3,
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*JobSpec)
		want string
	}{
		{"both kinds", func(j *JobSpec) { j.Experiment = "E2" }, "exactly one"},
		{"neither kind", func(j *JobSpec) { j.Algorithm = nil }, "exactly one"},
		{"unknown algorithm", func(j *JobSpec) { j.Algorithm.Key = "nope" }, "unknown algorithm"},
		{"unknown family", func(j *JobSpec) { j.Algorithm.Family = "moebius" }, "unknown graph family"},
		{"zero trials", func(j *JobSpec) { j.Algorithm.Trials = 0 }, "trials"},
		{"oversized trials", func(j *JobSpec) { j.Algorithm.Trials = 1 << 30 }, "exceeds the limit"},
		{"negative shards", func(j *JobSpec) { j.Shards = -1 }, "negative"},
		{"oversized shards", func(j *JobSpec) { j.Shards = 1000 }, "exceeds the limit"},
		{"bad graph size", func(j *JobSpec) { j.Algorithm.N = 1 }, "rejects size"},
		{"huge graph", func(j *JobSpec) { j.Algorithm.N = 1 << 19 }, "exceeding the limit"},
		{"hypercube blowup", func(j *JobSpec) { j.Algorithm.Family = "hypercube"; j.Algorithm.N = 64 }, "too deep"},
		{"bad drop rate", func(j *JobSpec) { j.Fault = &FaultSpec{Drop: 1.5} }, "outside [0, 1]"},
		{"bad delay rate", func(j *JobSpec) { j.Fault = &FaultSpec{Drop: 0.1, Delay: -3} }, "delay rate -3 outside [0, 1]"},
		{"negative crash round", func(j *JobSpec) { j.Fault = &FaultSpec{Crash: 0.1, CrashFrom: -1} }, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := validAlgoJob()
			tc.mut(&j)
			err := j.normalize(Limits{})
			if err == nil {
				t.Fatalf("accepted: %+v", j)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	t.Run("unknown experiment", func(t *testing.T) {
		j := JobSpec{Experiment: "E99"}
		if err := j.normalize(Limits{}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestNormalizeCanonicalizes(t *testing.T) {
	// Case-insensitive experiment IDs, defaulted seeds, collapsed shard
	// counts, and dropped zero fault plans must all converge on one ID.
	a := JobSpec{Experiment: "e2", Quick: true}
	b := JobSpec{Experiment: "E2", Quick: true, Seed: 1, Shards: 1, Fault: &FaultSpec{}}
	for _, j := range []*JobSpec{&a, &b} {
		if err := j.normalize(Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Experiment != "E2" {
		t.Fatalf("capitalization not canonicalized: %q", a.Experiment)
	}
	if a.ID() != b.ID() {
		t.Fatalf("equivalent specs hash apart:\n%s\n%s", a.canon().Encode(), b.canon().Encode())
	}
	if !validRunID(a.ID()) {
		t.Fatalf("ID %q is not store-shaped", a.ID())
	}
}

func TestIDSensitivity(t *testing.T) {
	base := func() JobSpec { return validAlgoJob() }
	j := base()
	if err := j.normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	want := j.ID()
	muts := []func(*JobSpec){
		func(j *JobSpec) { j.Seed = 4 },
		func(j *JobSpec) { j.Shards = 2 },
		func(j *JobSpec) { j.Algorithm.Key = "retry-coloring"; j.Algorithm.Params = []int64{3, 4} },
		func(j *JobSpec) { j.Algorithm.Family = "path" },
		func(j *JobSpec) { j.Algorithm.N = 17 },
		func(j *JobSpec) { j.Algorithm.Trials = 11 },
		func(j *JobSpec) { j.Fault = &FaultSpec{Drop: 0.1} },
	}
	for i, mut := range muts {
		m := base()
		mut(&m)
		if err := m.normalize(Limits{}); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		if m.ID() == want {
			t.Fatalf("mutation %d did not change the run ID", i)
		}
	}
	// And experiment vs algorithm jobs can never collide on "kind".
	e := JobSpec{Experiment: "E2"}
	if err := e.normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	if e.ID() == want {
		t.Fatal("experiment and algorithm jobs hashed together")
	}
}
