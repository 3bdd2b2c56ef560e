package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rlnc/internal/construct"
	"rlnc/internal/decide"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
)

const (
	laneWidth   = 32   // Plan.NewBatch and mc.Executor batch width
	sweepTrials = 64   // trials per sweep: two full 32-lane chunks
	drawWindows = 8    // trial windows the operations cycle through
	torusSide   = 64   // the torus sweeps run on torusSide × torusSide nodes
	cycleN      = 4096 // the Cole–Vishkin sweep runs on C_cycleN
	cvIDSets    = 64   // identity assignments the Cole–Vishkin trials rotate
	retryQ      = 16   // retry-coloring palette: 4·Δ on the torus ...
	retryT      = 24   // ... and retry rounds, so leftover conflicts are ~1e-15 per node
	shardSweeps = 4    // luby sweeps of the sharded check after kernel_batch's timed loop
)

// runExec is the execution surface the sweeps share: *local.Batch and
// *local.Sharded both provide it.
type runExec interface {
	Run(in *lang.Instance, algo local.MessageAlgorithm, draws []localrand.Draw, opts local.RunOptions) ([]*local.Result, error)
	RunInstances(ins []*lang.Instance, algo local.MessageAlgorithm, draws []localrand.Draw, opts local.RunOptions) ([]*local.Result, error)
}

// kstate is one Monte-Carlo worker's scratch, built in set-up and lent
// to mc.Executor through NewState; Close hands it back.
type kstate struct {
	exec   runExec
	bt     *local.Batch // decision views (the shard batch's companion when sharded)
	mem    decide.Mem
	draws  []localrand.Draw
	ddraws []localrand.Draw
	dis    []*lang.DecisionInstance
	ins    []*lang.Instance
	free   chan *kstate
}

func (s *kstate) Close() error {
	s.free <- s
	return nil
}

func newKState(exec runExec, bt *local.Batch, free chan *kstate) *kstate {
	return &kstate{
		exec:   exec,
		bt:     bt,
		draws:  make([]localrand.Draw, laneWidth),
		ddraws: make([]localrand.Draw, laneWidth),
		dis:    make([]*lang.DecisionInstance, laneWidth),
		ins:    make([]*lang.Instance, laneWidth),
		free:   free,
	}
}

// sweep is one Monte-Carlo sweep kind of kernel_batch or its sharded
// check.
type sweep struct {
	name    string
	plan    *local.Plan
	in      *lang.Instance   // the shared instance, or
	ins     []*lang.Instance // per-trial instances (trial t runs ins[t mod len])
	algo    local.MessageAlgorithm
	valid   *lang.LCL
	decider decide.Decider
	random  bool // the construction draws randomness
	free    chan *kstate

	mu      sync.Mutex
	counts  map[int][2]int64   // window → total (rounds, messages), first run
	samples map[int][][][]byte // window → outputs of trials [0, laneWidth), first run
	stats   map[int][]local.Stats
	trials  int64 // trials in traced sweeps
}

func (sw *sweep) instance(t int) *lang.Instance {
	if sw.ins != nil {
		return sw.ins[t%len(sw.ins)]
	}
	return sw.in
}

// kernel is the state of kernel_batch, and of the sharded luby sweep
// its check runs on two loopback-TCP shard workers.
type kernel struct {
	sharded bool
	seed    uint64
	tr      *tracer // nil when the run is untraced
	sweeps  []*sweep
	space   *localrand.TapeSpace // construction draws
	dspace  *localrand.TapeSpace // decider draws
	opN     atomic.Int64
	stop    func()

	// Shard wiring: the nonempty directed cut sizes and the control
	// bytes counted on the orchestrator's side of every worker conn.
	cutPairs []int
	ctrlB    atomic.Int64

	// Traced readings.
	progMu     sync.Mutex
	chunks     int
	sweepsN    int
	gaps       []float64 // ms between consecutive chunk completions
	ctrlTraced int64

	// The sharded check's kernel (closed), its spans and its sweep
	// wall times in ms.
	shard   *kernel
	shardTr *tracer
	shardMS []float64
}

// buildGraph builds a graph and compiles its plan, both traced.
func buildGraph(tr *tracer, build func() *graph.Graph) (*graph.Graph, *local.Plan, error) {
	sp := tr.begin("graph.build", -1, 0)
	g := build()
	tr.end(sp)
	sp = tr.begin("local.plan_compile", -1, 0)
	plan, err := local.NewPlan(g)
	tr.end(sp)
	return g, plan, err
}

func setupKernel(seed uint64, tr *tracer) (runner, error) {
	k := &kernel{seed: seed, tr: tr, space: localrand.NewTapeSpace(seed), dspace: localrand.NewTapeSpace(seed ^ 0x9e3779b97f4a7c15)}
	torus, tplan, err := buildGraph(tr, func() *graph.Graph { return graph.Torus(torusSide, torusSide) })
	if err != nil {
		return nil, err
	}
	cyc, cplan, err := buildGraph(tr, func() *graph.Graph { return graph.Cycle(cycleN) })
	if err != nil {
		return nil, err
	}
	tin, err := lang.NewInstance(torus, lang.EmptyInputs(torus.N()), ids.RandomPerm(torus.N(), seed))
	if err != nil {
		return nil, err
	}
	cins := make([]*lang.Instance, cvIDSets)
	for i := range cins {
		if cins[i], err = lang.NewInstance(cyc, lang.EmptyInputs(cyc.N()), ids.RandomPerm(cyc.N(), seed*cvIDSets+uint64(i)+1)); err != nil {
			return nil, err
		}
	}
	pool := runtime.GOMAXPROCS(0)
	tfree, cfree := make(chan *kstate, pool), make(chan *kstate, pool)
	for i := 0; i < pool; i++ {
		bt := tplan.NewBatch(laneWidth)
		tfree <- newKState(bt, bt, tfree)
		bt = cplan.NewBatch(laneWidth)
		cfree <- newKState(bt, bt, cfree)
	}
	mis, col, col3 := lang.MIS(), lang.ProperColoring(retryQ), lang.ProperColoring(3)
	k.sweeps = []*sweep{
		{name: "luby-mis", plan: tplan, in: tin, algo: construct.LubyMIS{}, valid: mis,
			decider: decide.NewResilientDecider(mis, 1), random: true, free: tfree},
		{name: "retry-coloring", plan: tplan, in: tin, algo: construct.RetryMessage(retryQ, retryT), valid: col,
			decider: decide.NewResilientDecider(col, 1), random: true, free: tfree},
		{name: "cole-vishkin", plan: cplan, ins: cins, algo: construct.ColeVishkin{MaxIDBits: bits.Len(uint(cycleN))}, valid: col3,
			decider: decide.NewResilientDecider(col3, 1), free: cfree},
	}
	k.stop = func() {}
	return k, k.warm()
}

// setupShard builds the luby torus sweep on a Plan.NewShardedRemote
// executor over two in-process local.ServeShardOpts workers on loopback
// TCP, with the control conns byte-counted, and runs one sweep.
func setupShard(seed uint64, tr *tracer) (*kernel, error) {
	k := &kernel{sharded: true, space: localrand.NewTapeSpace(seed), dspace: localrand.NewTapeSpace(seed ^ 0x9e3779b97f4a7c15)}
	torus, tplan, err := buildGraph(tr, func() *graph.Graph { return graph.Torus(torusSide, torusSide) })
	if err != nil {
		return nil, err
	}
	tin, err := lang.NewInstance(torus, lang.EmptyInputs(torus.N()), ids.RandomPerm(torus.N(), seed))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	var workers []*local.WorkerConn
	var sh *local.Sharded
	var pool *local.WorkerPool
	k.stop = func() {
		if sh != nil {
			sh.Close()
		}
		if pool != nil {
			pool.Close()
		}
		for _, w := range workers {
			w.Close()
		}
		ln.Close()
		wg.Wait()
	}
	fail := func(err error) (*kernel, error) {
		k.stop()
		return nil, err
	}
	const nWorkers = 2
	for i := 0; i < nWorkers; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return fail(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			// A worker failure surfaces on the orchestrator's side as a
			// failed sweep, so the error itself is not needed here.
			_ = local.ServeShardOpts(c, local.ServeOptions{Listen: "127.0.0.1:0"})
		}()
		a, err := ln.Accept()
		if err != nil {
			return fail(err)
		}
		cc := &countConn{Conn: a, n: &k.ctrlB}
		wc, err := local.NewWorkerConn(cc, 10*time.Second)
		if err != nil {
			return fail(err)
		}
		workers = append(workers, wc)
	}
	pool = local.NewWorkerPool(workers)
	if sh, err = tplan.NewShardedRemote(laneWidth, pool); err != nil {
		return fail(err)
	}
	topo, err := torus.Topology()
	if err != nil {
		return fail(err)
	}
	for _, row := range topo.CutSlots(sh.Partition()) {
		for _, cut := range row {
			if len(cut) > 0 {
				k.cutPairs = append(k.cutPairs, len(cut))
			}
		}
	}
	free := make(chan *kstate, 1)
	free <- newKState(sh, sh.Unsharded(), free)
	mis := lang.MIS()
	k.sweeps = []*sweep{{name: "luby-mis", plan: tplan, in: tin, algo: construct.LubyMIS{}, valid: mis,
		decider: decide.NewResilientDecider(mis, 1), random: true, free: free}}
	if err := k.warm(); err != nil {
		return fail(err)
	}
	return k, nil
}

func (k *kernel) primary() string { return "" }
func (k *kernel) close()          { k.stop() }

// op runs one sweep: operations rotate through the sweep kinds, and
// each kind through the trial windows.
func (k *kernel) op(ctx *opCtx) (int, string, error) {
	i := int(k.opN.Add(1) - 1)
	sw := k.sweeps[i%len(k.sweeps)]
	w := i / len(k.sweeps) % drawWindows
	if err := k.runSweep(sw, w, ctx); err != nil {
		return 0, sw.name, err
	}
	return sweepTrials, sw.name, nil
}

// warm runs one sweep of every kind, so each kind's lazy state exists
// before timing starts.
func (k *kernel) warm() error {
	for range k.sweeps {
		if _, _, err := k.op(&opCtx{sp: -1}); err != nil {
			return err
		}
	}
	return nil
}

func (k *kernel) runSweep(sw *sweep, w int, ctx *opCtx) error {
	base := w * sweepTrials
	sp := ctx.child("mc.sweep")
	defer ctx.tr.end(sp)
	var rounds, msgs atomic.Int64
	stats := make([]local.Stats, sweepTrials)
	var keep [][][]byte
	sw.mu.Lock()
	_, seen := sw.samples[w]
	sw.mu.Unlock()
	if !seen {
		keep = make([][][]byte, laneWidth)
	}
	x := mc.Executor[*kstate]{
		Trials:   sweepTrials,
		Batch:    laneWidth,
		NewState: func() *kstate { return <-sw.free },
	}
	if k.sharded {
		// One shard group: the worker pool serves one Sharded at a time.
		x.Shards = max(2, runtime.GOMAXPROCS(0))
	}
	var ctrl0 int64
	if ctx.tr != nil {
		x.Progress = k.progress()
		ctrl0 = k.ctrlB.Load()
	}
	runName := "local.batch_run"
	if k.sharded {
		runName = "local.sharded_run"
	}
	est := x.Run(func(s *kstate, lo, hi int, out []bool) {
		csp := ctx.tr.begin("mc.chunk", sp, ctx.id)
		defer ctx.tr.end(csp)
		n := hi - lo
		for i := 0; i < n; i++ {
			t := uint64(base + lo + i)
			s.draws[i] = k.space.Draw(t)
			s.ddraws[i] = k.dspace.Draw(t)
			s.ins[i] = sw.instance(base + lo + i)
		}
		var draws []localrand.Draw
		if sw.random {
			draws = s.draws[:n]
		}
		rsp := ctx.tr.begin(runName, csp, ctx.id)
		var res []*local.Result
		var err error
		if sw.ins != nil {
			res, err = s.exec.RunInstances(s.ins[:n], sw.algo, draws, local.RunOptions{})
		} else {
			res, err = s.exec.Run(sw.in, sw.algo, draws, local.RunOptions{})
		}
		ctx.tr.end(rsp)
		if err != nil {
			mc.Fail(fmt.Errorf("%s: %w", sw.name, err))
		}
		for i, r := range res {
			rounds.Add(int64(r.Stats.Rounds))
			msgs.Add(r.Stats.Messages)
			stats[lo+i] = r.Stats
			if keep != nil && lo+i < laneWidth {
				keep[lo+i] = cloneOutputs(r.Y)
			}
			in := s.ins[i]
			s.dis[i] = &lang.DecisionInstance{G: in.G, X: in.X, Y: r.Y, ID: in.ID}
		}
		asp := ctx.tr.begin("decide.accepts", csp, ctx.id)
		acc := decide.Exec{Bt: s.bt, Mem: &s.mem}.Accepts(s.dis[:n], sw.decider, s.ddraws[:n])
		ctx.tr.end(asp)
		copy(out, acc)
	})
	if est.Successes != est.Trials {
		return gatef("%s window %d: decider rejected %d of %d valid outputs", sw.name, w, est.Trials-est.Successes, est.Trials)
	}
	got := [2]int64{rounds.Load(), msgs.Load()}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.counts == nil {
		sw.counts, sw.samples, sw.stats = map[int][2]int64{}, map[int][][][]byte{}, map[int][]local.Stats{}
	}
	if want, ok := sw.counts[w]; ok && want != got {
		return gatef("%s window %d: rounds/messages %v, earlier run of the same draws gave %v", sw.name, w, got, want)
	} else if !ok {
		sw.counts[w] = got
		sw.samples[w] = keep
		sw.stats[w] = stats[:laneWidth]
	}
	if ctx.tr != nil {
		sw.trials += sweepTrials
		k.progMu.Lock()
		k.ctrlTraced += k.ctrlB.Load() - ctrl0
		k.progMu.Unlock()
	}
	return nil
}

// progress returns an mc Progress hook that counts chunks and records
// the interval between consecutive chunk completions of one sweep.
func (k *kernel) progress() func(done, total int) {
	var last time.Time
	return func(done, total int) {
		k.progMu.Lock()
		defer k.progMu.Unlock()
		now := time.Now()
		if done == 0 {
			k.sweepsN++
		} else {
			k.chunks++
			k.gaps = append(k.gaps, float64(now.Sub(last))/float64(time.Millisecond))
		}
		last = now
	}
}

func cloneOutputs(y [][]byte) [][]byte {
	out := make([][]byte, len(y))
	for v, b := range y {
		out[v] = append([]byte(nil), b...)
	}
	return out
}

// verify checks kernel_batch's sampled outputs, then runs the sharded
// check.
func (k *kernel) verify() error {
	if err := k.verifySweeps(); err != nil {
		return err
	}
	return k.checkShards()
}

// checkShards runs the luby sweep on two loopback-TCP shard workers for
// shardSweeps trial windows and gates every window's outputs against an
// unsharded Batch on the same draws. In a traced run its spans go to a
// tracer of their own, so they feed only the sharded layer metrics.
func (k *kernel) checkShards() error {
	var tr *tracer
	if k.tr != nil {
		tr = newTracer()
	}
	sk, err := setupShard(k.seed, tr)
	if err != nil {
		return fmt.Errorf("sharded check set-up: %w", err)
	}
	defer sk.close()
	tr.startTimed()
	for i := 0; i < shardSweeps; i++ {
		ctx := &opCtx{tr: tr, id: int64(i + 1)}
		ctx.sp = tr.begin("op", -1, ctx.id)
		t0 := time.Now()
		_, _, err := sk.op(ctx)
		k.shardMS = append(k.shardMS, float64(time.Since(t0))/float64(time.Millisecond))
		tr.end(ctx.sp)
		if err != nil {
			return err
		}
	}
	k.shard, k.shardTr = sk, tr
	return sk.verifySweeps()
}

// verifySweeps checks sampled outputs against their languages and, when
// sharded, against an unsharded Batch on the same draws.
func (k *kernel) verifySweeps() error {
	for _, sw := range k.sweeps {
		if len(sw.samples) == 0 {
			return gatef("%s: no sweep completed", sw.name)
		}
		var ref *local.Batch
		if k.sharded {
			ref = sw.plan.NewBatch(laneWidth)
		}
		for w, ys := range sw.samples {
			base := w * sweepTrials
			for lane, y := range ys {
				in := sw.instance(base + lane)
				if lane%8 == 0 {
					ok, err := sw.valid.Contains(&lang.Config{G: in.G, X: in.X, Y: y})
					if err != nil || !ok {
						return gatef("%s window %d trial %d: output is not a valid %s (%v)", sw.name, w, base+lane, sw.valid.Name(), err)
					}
				}
			}
			if ref == nil {
				continue
			}
			draws := make([]localrand.Draw, laneWidth)
			for i := range draws {
				draws[i] = k.space.Draw(uint64(base + i))
			}
			res, err := ref.Run(sw.in, sw.algo, draws, local.RunOptions{})
			if err != nil {
				return gatef("%s window %d: unsharded reference run: %v", sw.name, w, err)
			}
			for lane, r := range res {
				if r.Stats != sw.stats[w][lane] || !equalOutputs(r.Y, ys[lane]) {
					return gatef("%s window %d trial %d: sharded run differs from the unsharded Batch", sw.name, w, base+lane)
				}
			}
		}
	}
	return nil
}

func equalOutputs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (k *kernel) layers(m metrics, ph *phase) {
	setup := ph.tr.selfTimes(false)
	timed := ph.tr.selfTimes(true)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if lt := setup["graph.build"]; lt != nil {
		m.set("graph.build_ms", ms(lt.total)/setupReps, "ms")
	}
	if lt := setup["local.plan_compile"]; lt != nil {
		m.set("local.plan_compile_ms", ms(lt.total)/setupReps, "ms")
	}
	// Rounds and messages are exact counts: every window's totals, as
	// first recorded (later runs of a window must repeat them).
	var trials, counted, rounds, msgs int64
	for _, sw := range k.sweeps {
		trials += sw.trials
		sw.mu.Lock()
		for _, c := range sw.counts {
			counted += sweepTrials
			rounds += c[0]
			msgs += c[1]
		}
		sw.mu.Unlock()
	}
	if trials == 0 || counted == 0 {
		return
	}
	perTrialUS := func(name string) float64 {
		if lt := timed[name]; lt != nil {
			return float64(lt.self) / float64(time.Microsecond) / float64(trials)
		}
		return 0
	}
	m.set("local.rounds_per_trial", float64(rounds)/float64(counted), "count")
	m.set("local.msgs_per_trial", float64(msgs)/float64(counted), "count")
	m.set("decide.accepts_us_per_trial", perTrialUS("decide.accepts"), "us")
	m.set("local.batch_run_us_per_trial", perTrialUS("local.batch_run"), "us")
	if lt := timed["mc.chunk"]; lt != nil {
		m.set("mc.busy_frac", float64(lt.total)/(float64(ph.wall)*float64(runtime.GOMAXPROCS(0))), "frac")
	}
	if k.shard != nil && k.shardTr != nil {
		k.shard.shardLayers(m, k.shardTr)
	}
	k.progMu.Lock()
	defer k.progMu.Unlock()
	if k.sweepsN > 0 {
		m.set("mc.chunks", float64(k.chunks)/float64(k.sweepsN), "count")
	}
	m.set("mc.chunk_ms_p50", quantile(k.gaps, 0.5), "ms")
	m.set("mc.chunk_ms_p90", quantile(k.gaps, 0.9), "ms")
}

// shardLayers adds the sharded check's layer metrics: the time in
// Sharded.Run, the bytes on the control conns and the computed cut
// bytes, per trial of its luby sweeps.
func (k *kernel) shardLayers(m metrics, tr *tracer) {
	sw := k.sweeps[0]
	sw.mu.Lock()
	var counted, rounds int64
	for _, c := range sw.counts {
		counted += sweepTrials
		rounds += c[0]
	}
	sw.mu.Unlock()
	if sw.trials == 0 || counted == 0 {
		return
	}
	if lt := tr.selfTimes(true)["local.sharded_run"]; lt != nil {
		m.set("local.sharded_run_us_per_trial", float64(lt.self)/float64(time.Microsecond)/float64(sw.trials), "us")
	}
	m.set("local.ctrl_bytes_per_trial", float64(k.ctrlTraced)/float64(sw.trials), "B")
	var perRound float64
	for _, c := range k.cutPairs {
		perRound += 20*float64(c) + 24.0/laneWidth
	}
	m.set("local.cut_bytes_per_trial", perRound*float64(rounds)/float64(counted), "B-computed")
}

func (k *kernel) detail(ph *phase) map[string]any {
	d := map[string]any{
		"op": "one 64-trial sweep; kinds rotate",
	}
	for _, sw := range k.sweeps {
		lat := ph.latencies(sw.name)
		d[sw.name+"_p50_ms"] = quantile(lat, 0.5)
		d[sw.name+"_p90_ms"] = quantile(lat, 0.9)
		d[sw.name+"_n"] = len(lat)
	}
	// The sharded check's luby sweeps, against luby-mis_p50_ms: the
	// gap is the cost of sharding over loopback TCP.
	d["sharded_luby_p50_ms"] = median(k.shardMS)
	d["sharded_luby_n"] = len(k.shardMS)
	return d
}

// countConn counts the bytes a connection carries in both directions.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
