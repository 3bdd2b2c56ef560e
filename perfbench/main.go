// Command perfbench is the repository benchmark. It drives the system
// from outside, through the public functions of each module, runs one
// named workload for a fixed time, checks that the outputs are correct,
// and prints its metrics by name with their units.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// measured from spans the benchmark records around each public call,
// plus the tracing overhead against an untraced half of the same run.
// The line before it is a detail object: host stamp, per-class
// latencies with sample counts, and gate results. The process exits
// with status 1 when a correctness gate fails and 2 on a usage or
// set-up error. README.md lists the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupReps is how many times a run builds its workload state; setup_s
// is the median, and all but the last build are torn down again.
const setupReps = 5

// workload is one named benchmark input set.
type workload struct {
	name string
	// setup builds fresh state for one run; it may record spans.
	setup func(seed uint64, tr *tracer) (runner, error)
}

// runner is a workload's live state: a closed-loop operation, the
// end-of-run correctness gates, and its per-layer readings.
type runner interface {
	// op performs one operation; units is the work it completed
	// (trials, experiment runs or round trips), class labels its
	// latency class. A returned error counts the operation as failed.
	op(ctx *opCtx) (units int, class string, err error)
	// primary is the latency class the end-to-end percentiles report
	// ("" for every operation).
	primary() string
	// verify runs the correctness gates after the timed loop.
	verify() error
	// layers adds the workload's per-layer metrics from a traced phase.
	layers(m metrics, ph *phase)
	// detail returns workload-specific readings for the detail line.
	detail(ph *phase) map[string]any
	close()
}

// opCtx is the tracing context of one operation.
type opCtx struct {
	tr *tracer // nil when the phase is untraced
	id int64   // operation id shared by the op's spans
	sp int32   // the op's root span
}

var workloads = []workload{
	{"suite_quick", setupSuite},
	{"kernel_batch", setupKernel},
	{"serve_mixed", setupServe},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (suite_quick, kernel_batch, serve_mixed), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	res, det, err := measure(*w, *seed, time.Duration(*seconds)*time.Second, spec, *trace == 1)
	if err == nil {
		err = spec.check(res.Metrics, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		if errors.Is(err, errGate) {
			return 1 // a gate failed during set-up, before any metric
		}
		return 2
	}
	printJSON(det)
	printJSON(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and numbers reach here
	}
	fmt.Println(string(b))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// sample is one completed operation as its caller saw it: its wall
// time, and the CPU time (user and system, all threads) the process
// spent while it ran. The loop has a single client, so that CPU time is
// the operation's own.
type sample struct {
	class    string
	dur, cpu time.Duration
	failed   bool
}

// phase is one closed-loop measurement window.
type phase struct {
	tr      *tracer
	wall    time.Duration
	units   int
	samples []sample
	errs    []error
	rt      rtDelta
	rss     []float64 // peak resident MiB of each rssWindow
	cpu     time.Duration
}

func (ph *phase) failed() int {
	n := 0
	for _, s := range ph.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// latencies returns the wall times in ms of the samples of the given
// class ("" for all), failed operations as +Inf so they miss any limit.
func (ph *phase) latencies(class string) []float64 {
	return ph.times(class, func(s sample) time.Duration { return s.dur })
}

// cpuTimes is latencies for the samples' CPU times.
func (ph *phase) cpuTimes(class string) []float64 {
	return ph.times(class, func(s sample) time.Duration { return s.cpu })
}

func (ph *phase) times(class string, of func(sample) time.Duration) []float64 {
	var out []float64
	for _, s := range ph.samples {
		if class != "" && s.class != class {
			continue
		}
		if s.failed {
			out = append(out, math.Inf(1))
		} else {
			out = append(out, float64(of(s))/float64(time.Millisecond))
		}
	}
	return out
}

// loop runs r closed-loop, one operation after another, for d and
// collects the samples.
func loop(r runner, d time.Duration, tr *tracer) *phase {
	ph := &phase{tr: tr}
	rt0, cpu0 := readRuntime(), cpuTime()
	stopRSS := sampleRSS(&ph.rss)
	start := time.Now()
	for id := int64(1); time.Since(start) < d; id++ {
		ctx := &opCtx{tr: tr, id: id, sp: -1}
		ctx.sp = tr.begin("op", -1, id)
		t0, c0 := time.Now(), cpuTime()
		units, class, err := r.op(ctx)
		dur, cdur := time.Since(t0), cpuTime()-c0
		tr.end(ctx.sp)
		ph.samples = append(ph.samples, sample{class, dur, cdur, err != nil})
		if err != nil {
			ph.errs = append(ph.errs, err)
		} else {
			ph.units += units
		}
	}
	ph.wall = time.Since(start)
	stopRSS()
	ph.cpu = cpuTime() - cpu0
	ph.rt = readRuntime().sub(rt0)
	return ph
}

func measure(w workload, seed uint64, d time.Duration, spec *benchSpec, traced bool) (*result, map[string]any, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Set-up is everything before steady state: building the workload
	// and one untimed operation, which lets lazy state
	// (arenas, shipped jobs, caches) finish. It runs setupReps times;
	// each earlier build is torn down and collected before the next.
	// setup_s is the median CPU time of a set-up; the wall times are in
	// the detail line.
	var r runner
	var setupWall, setupCPU []float64
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
			runtime.GC()
		}
		t0, c0 := time.Now(), cpuTime()
		var err error
		if r, err = w.setup(seed, tr); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		if _, _, err := r.op(&opCtx{sp: -1}); err != nil {
			r.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
	}
	defer r.close()
	// Return the earlier builds' memory, so peak_rss_mb reads the
	// workload's own resident set.
	debug.FreeOSMemory()
	spinBefore := spinMS()
	steal0 := stealSeconds()
	var main, plain *phase
	if traced {
		// Untraced and traced slices alternate, so drift over the run
		// does not read as tracing overhead.
		tr.startTimed()
		const slices = 4
		for i := 0; i < slices; i++ {
			if i%2 == 0 {
				plain = plain.merge(loop(r, d/slices, nil))
			} else {
				main = main.merge(loop(r, d/slices, tr))
			}
		}
	} else {
		main = loop(r, d, nil)
	}
	stolen := stealSeconds() - steal0
	spinAfter := spinMS()
	gateErr := r.verify()
	opErrs := append(main.errs, phaseErrs(plain)...)
	res := &result{Correct: gateErr == nil, Metrics: metrics{}}
	for _, e := range opErrs {
		if errors.Is(e, errGate) {
			res.Correct = false
		}
	}
	res.Attempted = len(main.samples)
	res.Failed = main.failed()
	if plain != nil {
		res.Attempted += len(plain.samples)
		res.Failed += plain.failed()
	}
	det := map[string]any{
		"workload":     w.name,
		"seed":         seed,
		"host":         hostStamp(),
		"setup_wall_s": setupWall,
		"setup_cpu_s":  setupCPU,
		"spin_ms":      []float64{spinBefore, spinAfter},
		"steal_s":      stolen,
	}
	if gateErr != nil {
		det["gate_error"] = gateErr.Error()
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness gate failed: %v\n", w.name, gateErr)
	}
	if len(opErrs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d operations failed, first: %v\n", w.name, len(opErrs), opErrs[0])
		det["op_error"] = opErrs[0].Error()
	}
	for k, v := range r.detail(main) {
		det[k] = v
	}
	if traced {
		traceLayers(res.Metrics, spec, r, plain, main)
		if err := tr.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
		}
	} else {
		m := res.Metrics
		m.set("setup_s", median(setupCPU), "s")
		m.set("ops_per_cpu_s", float64(main.units)/main.cpu.Seconds(), "1/s")
		cpu := main.cpuTimes(r.primary())
		m.set("op_cpu_p50_ms", quantile(cpu, 0.5), "ms")
		m.set("op_cpu_p90_ms", quantile(cpu, 0.9), "ms")
		m.set("ok_frac", 1-float64(main.failed())/float64(max(1, len(main.samples))), "frac")
		m.set("peak_rss_mb", median(main.rss), "MB")
		// The wall-clock counterparts.
		lat := main.latencies(r.primary())
		det["op_samples"] = len(main.samples)
		det["op_p50_ms"] = quantile(lat, 0.5)
		det["op_p90_ms"] = quantile(lat, 0.9)
		det["wall_ops_per_s"] = float64(main.units) / main.wall.Seconds()
		det["cpu_cores"] = main.cpu.Seconds() / main.wall.Seconds()
	}
	return res, det, nil
}

// merge returns the union of two measurement windows (ph may be nil).
func (ph *phase) merge(o *phase) *phase {
	if ph == nil {
		return o
	}
	ph.wall += o.wall
	ph.units += o.units
	ph.samples = append(ph.samples, o.samples...)
	ph.rss = append(ph.rss, o.rss...)
	ph.errs = append(ph.errs, o.errs...)
	ph.rt = ph.rt.add(o.rt)
	return ph
}

func phaseErrs(ph *phase) []error {
	if ph == nil {
		return nil
	}
	return ph.errs
}

// traceLayers fills the per-layer metrics every workload reports: the
// workload's own readings (zero for layers it does not exercise), the
// Go runtime's, and the tracing overhead.
func traceLayers(m metrics, spec *benchSpec, r runner, plain, main *phase) {
	for _, d := range spec.PerLayer {
		m.set(d.Name, 0, d.Unit)
	}
	r.layers(m, main)
	ops := float64(max(1, len(plain.samples)))
	m.set("go.gc_cpu_frac", plain.rt.gcCPUFrac(), "frac")
	m.set("go.alloc_bytes_per_op", plain.rt.allocBytes/ops, "B")
	m.set("go.sched_latency_p90_us", plain.rt.schedP90us(), "us")
	// Overhead: per-unit wall time traced against untraced.
	perUnit := func(ph *phase) float64 { return ph.wall.Seconds() / float64(max(1, ph.units)) }
	m.set("trace.overhead_pct", 100*(perUnit(main)/perUnit(plain)-1), "%")
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; +Inf entries (failed operations) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// errGate marks a correctness-gate failure.
var errGate = errors.New("gate")

func gatef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}
