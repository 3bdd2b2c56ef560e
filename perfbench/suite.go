package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rlnc/internal/exp"
	"rlnc/internal/report"
)

// goldenE2 is the committed CLI golden of `rlnc run E2 -quick -seed 7`.
var goldenE2 = filepath.Join("cmd", "rlnc", "testdata", "run_E2_quick_seed7.golden")

// suite is the suite_quick workload: serial quick runs of E1–E17 in
// order, pass after pass. An operation is one experiment run.
type suite struct {
	exps    []report.Experiment
	cfg     report.Config
	ref     [][]byte // the set-up pass's bytes per experiment
	failing int      // checks failing in the set-up pass
	next    int

	mu     sync.Mutex
	chunks int
	sweeps int
	gaps   []float64
}

// setupSuite runs the reference pass: its bytes are what every later
// pass must render.
func setupSuite(seed uint64, _ *tracer) (runner, error) {
	s := &suite{exps: exp.All(), cfg: report.Config{Quick: true, Seed: seed}}
	for _, e := range s.exps {
		res, err := e.Run(s.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID(), err)
		}
		s.ref = append(s.ref, report.RunText(e, res))
		s.failing += failingChecks(res)
	}
	return s, nil
}

func (s *suite) primary() string { return "" }
func (s *suite) close()          {}

// op runs the next experiment and compares its bytes with the set-up
// pass's.
func (s *suite) op(ctx *opCtx) (int, string, error) {
	i := s.next % len(s.exps)
	s.next++
	e := s.exps[i]
	cfg := s.cfg
	if ctx.tr != nil {
		cfg.Progress = s.progress()
	}
	sp := ctx.child("exp." + e.ID())
	res, err := e.Run(cfg)
	ctx.tr.end(sp)
	if err != nil {
		return 0, e.ID(), fmt.Errorf("%s: %w", e.ID(), err)
	}
	sp = ctx.child("report.render")
	text := report.RunText(e, res)
	ctx.tr.end(sp)
	if !bytes.Equal(text, s.ref[i]) {
		return 0, e.ID(), gatef("%s rendered different bytes than the set-up pass at seed %d", e.ID(), s.cfg.Seed)
	}
	return 1, e.ID(), nil
}

func failingChecks(res *report.Result) int {
	n := 0
	for _, c := range res.Checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// progress counts Monte-Carlo sweeps and chunks and records the interval
// between consecutive chunk completions within a sweep.
func (s *suite) progress() func(done, total int) {
	var last time.Time
	return func(done, total int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		now := time.Now()
		if done == 0 {
			s.sweeps++
		} else {
			s.chunks++
			s.gaps = append(s.gaps, float64(now.Sub(last))/float64(time.Millisecond))
		}
		last = now
	}
}

// verify pins the suite against references outside the run: at the
// golden seed 7 every check passes and E2 renders the committed golden
// bytes.
func (s *suite) verify() error {
	golden, err := os.ReadFile(goldenE2)
	if err != nil {
		return gatef("reading the E2 golden: %v", err)
	}
	for _, e := range s.exps {
		res, err := e.Run(report.Config{Quick: true, Seed: 7})
		if err != nil {
			return gatef("%s at seed 7: %v", e.ID(), err)
		}
		if n := failingChecks(res); n > 0 {
			return gatef("%s at seed 7: %d checks fail", e.ID(), n)
		}
		if e.ID() == "E2" && !bytes.Equal(report.RunText(e, res), golden) {
			return gatef("E2 at seed 7 differs from %s", goldenE2)
		}
	}
	return nil
}

func (s *suite) layers(m metrics, ph *phase) {
	timed := ph.tr.selfTimes(true)
	for _, e := range s.exps {
		if lt := timed["exp."+e.ID()]; lt != nil {
			m.set("exp."+e.ID()+"_s", lt.total.Seconds()/float64(lt.count), "s")
		}
	}
	if lt := timed["report.render"]; lt != nil {
		passes := float64(lt.count) / float64(len(s.exps))
		m.set("report.render_ms", float64(lt.total)/float64(time.Millisecond)/passes, "ms")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sweeps > 0 {
		m.set("mc.chunks", float64(s.chunks)/float64(s.sweeps), "count")
	}
	m.set("mc.chunk_ms_p50", quantile(s.gaps, 0.5), "ms")
	m.set("mc.chunk_ms_p90", quantile(s.gaps, 0.9), "ms")
}

// detail reports suite_pass_s, the median over every run of
// len(exps) consecutive operations (each experiment once) of their
// summed latency.
func (s *suite) detail(ph *phase) map[string]any {
	var passes []float64
	n := len(s.exps)
	for lo := 0; lo+n <= len(ph.samples); lo += n {
		var sum time.Duration
		for _, smp := range ph.samples[lo : lo+n] {
			sum += smp.dur
		}
		passes = append(passes, sum.Seconds())
	}
	return map[string]any{
		"op":                     "one quick experiment run; E1-E17 in order, pass after pass",
		"suite_pass_s":           median(passes),
		"passes":                 len(passes),
		"checks_failing_at_seed": s.failing,
	}
}
