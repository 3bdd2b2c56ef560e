package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rlnc/internal/serve"
)

const (
	coldEvery    = 5                // an op is a cold job with probability 1/coldEvery
	recentJobs   = 16               // hits resubmit one of the last recentJobs cold jobs
	restartEvery = 2 * time.Second  // daemon re-created over the same store this often
	serveTimeout = 30 * time.Second // per HTTP exchange; a slower one fails the op
	coldFamily   = "torus"          // cold jobs: luby-mis on a coldSide × coldSide torus
	coldSide     = 32               // ...
	coldTrials   = 64               // ... with this many trials
	jobTemplate  = `{"algorithm":{"key":"luby-mis","family":"%s","n":%d,"trials":%d},"seed":%d}`
)

// serveLoad is the serve_mixed workload: a daemon over a temporary run
// store on a loopback listener, driven by one closed-loop client.
type serveLoad struct {
	store  *serve.Store
	srv    atomic.Pointer[serve.Server]
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client

	mu          sync.Mutex
	rng         *rand.Rand
	warmed      bool // an operation has started
	nextSeed    uint64
	recent      []string          // job bodies of completed cold jobs, newest last
	tables      map[string][]byte // run id → table of its cold run
	lastRestart time.Time
	restarts    int
	executed    int64 // runs executed by daemons already closed
	submitted   int64
	storeHits   int64 // hits the store answered after a restart

	// Traced readings, in ms.
	submit, queueWait, execMS, table, storeGet []float64
	chunks, sweeps                             int
}

func setupServe(seed uint64, _ *tracer) (runner, error) {
	// Run stores are kept, not deleted, when a run ends: deleting
	// thousands of store entries slows the file writes of the runs that
	// follow on disks mounted with online discard.
	root := filepath.Join(".bench_build", "serve")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "serve-")
	if err != nil {
		return nil, err
	}
	s := &serveLoad{tables: map[string][]byte{}, nextSeed: seed << 32, served: make(chan struct{}), rng: rand.New(rand.NewPCG(seed, 0))}
	if s.store, err = serve.OpenStore(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := serve.NewServer(serve.Options{Store: s.store})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv.Store(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.srv.Load().ServeHTTP(w, r)
	})}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	s.client = &http.Client{
		Timeout:   serveTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2},
	}
	s.lastRestart = time.Now()
	return s, nil
}

func (s *serveLoad) primary() string { return "hit" }

func (s *serveLoad) close() {
	s.hs.Close()
	<-s.served
	s.srv.Load().Close()
	s.client.CloseIdleConnections()
}

// restartIfDue closes the daemon and re-creates it over the same store
// once restartEvery has passed, so resubmissions of jobs it ran become
// store hits.
func (s *serveLoad) restartIfDue() error {
	s.mu.Lock()
	due := time.Since(s.lastRestart) >= restartEvery
	if due {
		s.lastRestart = time.Now()
	}
	s.mu.Unlock()
	if !due {
		return nil
	}
	old := s.srv.Load()
	old.Close()
	srv, err := serve.NewServer(serve.Options{Store: s.store})
	if err != nil {
		return err
	}
	s.srv.Store(srv)
	s.mu.Lock()
	s.executed += old.Executed()
	s.storeHits += old.CacheHits()
	s.restarts++
	s.mu.Unlock()
	return nil
}

// op submits a job, follows its event stream to a terminal frame and
// fetches its table.
func (s *serveLoad) op(ctx *opCtx) (int, string, error) {
	if err := s.restartIfDue(); err != nil {
		return 0, "cold", err
	}
	s.mu.Lock()
	// The first operation (the set-up warm-up) is always cold, so set-up
	// does the same work at every seed.
	cold := s.rng.IntN(coldEvery) == 0 || !s.warmed
	s.warmed = true
	var body string
	if cold {
		s.nextSeed++
		body = fmt.Sprintf(jobTemplate, coldFamily, coldSide, coldTrials, s.nextSeed)
	} else {
		body = s.recent[s.rng.IntN(len(s.recent))]
	}
	s.submitted++
	s.mu.Unlock()
	class := "hit"
	if cold {
		class = "cold"
	}

	t0 := time.Now()
	sp := ctx.child("serve.submit")
	var meta serve.RunMeta
	status, err := s.do("POST", "/v1/runs", strings.NewReader(body), &meta)
	ctx.tr.end(sp)
	if err != nil {
		return 0, class, err
	}
	if want := map[bool]int{true: http.StatusAccepted, false: http.StatusOK}[cold]; status != want {
		return 0, class, fmt.Errorf("submit answered %d, want %d", status, want)
	}
	tSubmit := time.Now()

	sp = ctx.child("serve.events")
	ev, err := s.follow(meta.ID)
	ctx.tr.end(sp)
	if err != nil {
		return 0, class, err
	}
	tEvents := time.Now()

	sp = ctx.child("serve.table")
	var table []byte
	status, err = s.do("GET", "/v1/runs/"+meta.ID+"/table", nil, &table)
	ctx.tr.end(sp)
	if err != nil {
		return 0, class, err
	}
	if status != http.StatusOK {
		return 0, class, fmt.Errorf("table answered %d", status)
	}
	tTable := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if cold {
		s.tables[meta.ID] = table
		s.recent = append(s.recent, body)
		if len(s.recent) > recentJobs {
			s.recent = s.recent[1:]
		}
	} else if want, ok := s.tables[meta.ID]; !ok || !bytes.Equal(table, want) {
		return 0, class, gatef("hit table of run %s (cached=%v) differs from its cold table", meta.ID, meta.Cached)
	}
	if ctx.tr != nil {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		s.submit = append(s.submit, ms(tSubmit.Sub(t0)))
		s.table = append(s.table, ms(tTable.Sub(tEvents)))
		if cold {
			s.queueWait = append(s.queueWait, ms(ev.started.Sub(tSubmit)))
			s.execMS = append(s.execMS, ms(ev.done.Sub(ev.started)))
			s.chunks += ev.chunks
			s.sweeps += ev.sweeps
		} else {
			t := time.Now()
			_, _, ok, err := s.store.Get(meta.ID)
			if err != nil || !ok {
				return 0, class, fmt.Errorf("store get %s: ok=%v err=%v", meta.ID, ok, err)
			}
			s.storeGet = append(s.storeGet, ms(time.Since(t)))
		}
	}
	return 1, class, nil
}

// do performs one HTTP exchange, decoding a JSON body into v (or
// copying raw bytes into a *[]byte); 5xx answers fail.
func (s *serveLoad) do(method, path string, body io.Reader, v any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode >= 500 {
		return resp.StatusCode, fmt.Errorf("%s %s answered %d: %s", method, path, resp.StatusCode, b)
	}
	if raw, ok := v.(*[]byte); ok {
		*raw = b
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(b, v); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// stream is what a client saw on one run's event stream.
type stream struct {
	started, done  time.Time
	chunks, sweeps int
}

// follow reads a run's SSE stream to its terminal frame; an error frame
// or a stream ending without one fails.
func (s *serveLoad) follow(id string) (*stream, error) {
	resp, err := s.client.Get(s.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events answered %d", resp.StatusCode)
	}
	ev := &stream{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		now := time.Now()
		switch name {
		case "started", "cached":
			ev.started = now
		case "sweep":
			ev.sweeps++
		case "chunks":
			ev.chunks++
		case "done":
			ev.done = now
			if ev.started.IsZero() {
				ev.started = now
			}
			return ev, nil
		case "error":
			return nil, fmt.Errorf("run %s ended with an error frame", id)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("event stream ended without a terminal frame")
}

// verify checks that every cold job's table was captured and that the
// daemons answered every resubmission without executing it again.
func (s *serveLoad) verify() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	executed := s.executed + s.srv.Load().Executed()
	if executed != int64(len(s.tables)) {
		return gatef("daemons executed %d runs for %d distinct cold jobs", executed, len(s.tables))
	}
	if hits := s.storeHits + s.srv.Load().CacheHits(); s.restarts > 0 && hits == 0 {
		return gatef("no store hits after %d daemon restarts", s.restarts)
	}
	return nil
}

func (s *serveLoad) layers(m metrics, ph *phase) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m.set("serve.submit_ms", median(s.submit), "ms")
	m.set("serve.queue_wait_ms", median(s.queueWait), "ms")
	m.set("serve.exec_ms", median(s.execMS), "ms")
	m.set("serve.table_ms", median(s.table), "ms")
	m.set("serve.store_get_ms", median(s.storeGet), "ms")
	executed := s.executed + s.srv.Load().Executed()
	m.set("serve.hit_ratio", 1-float64(executed)/float64(max(1, s.submitted)), "frac")
	cold, hit := ph.latencies("cold"), ph.latencies("hit")
	m.set("serve.rt_cold_p50_ms", quantile(cold, 0.5), "ms")
	m.set("serve.rt_cold_p90_ms", quantile(cold, 0.9), "ms")
	m.set("serve.rt_hit_p50_ms", quantile(hit, 0.5), "ms")
	m.set("serve.rt_hit_p90_ms", quantile(hit, 0.9), "ms")
	if s.sweeps > 0 {
		m.set("mc.chunks", float64(s.chunks)/float64(s.sweeps), "count")
	}
}

func (s *serveLoad) detail(ph *phase) map[string]any {
	cold, hit := ph.latencies("cold"), ph.latencies("hit")
	s.mu.Lock()
	defer s.mu.Unlock()
	return map[string]any{
		"op":             "POST /v1/runs, SSE events to a terminal frame, GET table",
		"rt_cold_p50_ms": quantile(cold, 0.5),
		"rt_cold_p90_ms": quantile(cold, 0.9),
		"rt_cold_n":      len(cold),
		"rt_hit_p50_ms":  quantile(hit, 0.5),
		"rt_hit_p90_ms":  quantile(hit, 0.9),
		"rt_hit_n":       len(hit),
		"restarts":       s.restarts,
		"store_hits":     s.storeHits,
	}
}
