package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTestServer builds a Server over a fresh store with an injected
// runner and returns it with its HTTP front end.
func newTestServer(t *testing.T, dir string, runner func(spec JobSpec, progress func(done, total int)) ([]byte, bool, error)) (*Server, *httptest.Server) {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Options{Store: st, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// countingRunner returns a runner that counts invocations and emits a
// tiny deterministic table with one sweep of two chunks.
func countingRunner(calls *atomic.Int64) func(spec JobSpec, progress func(done, total int)) ([]byte, bool, error) {
	return func(spec JobSpec, progress func(done, total int)) ([]byte, bool, error) {
		calls.Add(1)
		progress(0, 2)
		progress(1, 2)
		progress(2, 2)
		return []byte("table for " + spec.Describe() + "\n"), true, nil
	}
}

// postJob submits a body and returns the response.
func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// awaitDone polls a run until it leaves the queue and the worker
// finishes it.
func awaitDone(t *testing.T, ts *httptest.Server, id string) RunMeta {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var meta RunMeta
		err = json.NewDecoder(resp.Body).Decode(&meta)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if meta.Status == statusDone || meta.Status == statusError {
			return meta
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never finished", id)
	return RunMeta{}
}

func TestSubmitValidation(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, t.TempDir(), countingRunner(&calls))
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed JSON", `{"experiment": `, http.StatusBadRequest},
		{"unknown field", `{"experiment":"E2","bogus":1}`, http.StatusBadRequest},
		{"unknown experiment", `{"experiment":"E99"}`, http.StatusUnprocessableEntity},
		{"unknown algorithm key", `{"algorithm":{"key":"nope","family":"cycle","n":8,"trials":5}}`, http.StatusUnprocessableEntity},
		{"oversized trials", `{"algorithm":{"key":"luby-mis","family":"cycle","n":8,"trials":99999999}}`, http.StatusUnprocessableEntity},
		{"both kinds", `{"experiment":"E2","algorithm":{"key":"luby-mis","family":"cycle","n":8,"trials":5}}`, http.StatusUnprocessableEntity},
		{"out-of-range fault rates", `{"experiment":"E2","quick":true,"fault":{"drop":1.7,"delay":-3}}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJob(t, ts, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.code, body)
			}
			if !bytes.Contains(body, []byte("error")) {
				t.Fatalf("no error body: %s", body)
			}
		})
	}
	if calls.Load() != 0 {
		t.Fatalf("rejected jobs reached the runner %d times", calls.Load())
	}
}

func TestSubmitExecuteAndCacheHit(t *testing.T) {
	var calls atomic.Int64
	dir := t.TempDir()
	srv, ts := newTestServer(t, dir, countingRunner(&calls))

	resp, body := postJob(t, ts, `{"experiment":"E2","quick":true,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, body)
	}
	var meta RunMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Status != statusQueued || meta.Cached {
		t.Fatalf("first submit meta: %+v", meta)
	}
	done := awaitDone(t, ts, meta.ID)
	if done.Status != statusDone || !done.ChecksPass {
		t.Fatalf("run did not succeed: %+v", done)
	}
	tableResp, err := http.Get(ts.URL + "/v1/runs/" + meta.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	table1, _ := io.ReadAll(tableResp.Body)
	tableResp.Body.Close()
	if tableResp.StatusCode != http.StatusOK || len(table1) == 0 {
		t.Fatalf("table fetch: %d %q", tableResp.StatusCode, table1)
	}

	// The differential the whole design rides on: resubmitting the same
	// job (different JSON spelling included) is a 200 cache hit with
	// byte-identical table bytes and ZERO further runner invocations.
	resp2, body2 := postJob(t, ts, `{"seed":7,"quick":true,"experiment":"e2"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp2.StatusCode, body2)
	}
	var meta2 RunMeta
	if err := json.Unmarshal(body2, &meta2); err != nil {
		t.Fatal(err)
	}
	if meta2.ID != meta.ID {
		t.Fatalf("resubmission got a different ID: %s vs %s", meta2.ID, meta.ID)
	}
	if calls.Load() != 1 {
		t.Fatalf("runner invoked %d times, want exactly 1", calls.Load())
	}
	if srv.Executed() != 1 || srv.CacheHits() != 0 {
		// Still live in this daemon: answered from the live map, which is
		// dedup, not a store hit.
		t.Fatalf("counters after live dedup: executed=%d cacheHits=%d", srv.Executed(), srv.CacheHits())
	}

	// Across a daemon restart the live map is gone and only the store
	// answers — the true cache-hit path, with Cached reported.
	srv2, ts2 := newTestServer(t, dir, func(spec JobSpec, progress func(int, int)) ([]byte, bool, error) {
		t.Error("cache hit reached the runner")
		return nil, false, fmt.Errorf("must not run")
	})
	resp3, body3 := postJob(t, ts2, `{"experiment":"E2","quick":true,"seed":7}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("restart resubmit: %d %s", resp3.StatusCode, body3)
	}
	var meta3 RunMeta
	if err := json.Unmarshal(body3, &meta3); err != nil {
		t.Fatal(err)
	}
	if !meta3.Cached || meta3.ID != meta.ID {
		t.Fatalf("restart resubmit meta: %+v", meta3)
	}
	if srv2.CacheHits() != 1 || srv2.Executed() != 0 {
		t.Fatalf("counters after store hit: executed=%d cacheHits=%d", srv2.Executed(), srv2.CacheHits())
	}
	table2Resp, err := http.Get(ts2.URL + "/v1/runs/" + meta.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	table2, _ := io.ReadAll(table2Resp.Body)
	table2Resp.Body.Close()
	if !bytes.Equal(table1, table2) {
		t.Fatalf("cached table differs:\n%q\n%q", table1, table2)
	}
}

func TestRunError(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), func(spec JobSpec, progress func(int, int)) ([]byte, bool, error) {
		return nil, false, fmt.Errorf("synthetic failure")
	})
	resp, body := postJob(t, ts, `{"experiment":"E2"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var meta RunMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	done := awaitDone(t, ts, meta.ID)
	if done.Status != statusError || !strings.Contains(done.Error, "synthetic failure") {
		t.Fatalf("error run meta: %+v", done)
	}
	// Failed runs must not poison the cache: no table, and a
	// resubmission after restart would re-execute (the store holds
	// nothing).
	tresp, err := http.Get(ts.URL + "/v1/runs/" + meta.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusConflict {
		t.Fatalf("table of failed run: %d", tresp.StatusCode)
	}
}

func TestRegistryEndpoints(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, t.TempDir(), countingRunner(&calls))
	for path, want := range map[string]string{
		"/v1/experiments": `"E2"`,
		"/v1/algorithms":  `"luby-mis"`,
		"/v1/families":    `"cycle"`,
		"/v1/healthz":     `"ok"`,
		"/v1/stats":       `"executed"`,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(want)) {
			t.Fatalf("%s: %d %s (want %s)", path, resp.StatusCode, body, want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + strings.Repeat("a", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %d", resp.StatusCode)
	}
}

func TestListMergesLiveAndStored(t *testing.T) {
	var calls atomic.Int64
	dir := t.TempDir()
	_, ts := newTestServer(t, dir, countingRunner(&calls))
	_, body := postJob(t, ts, `{"experiment":"E2"}`)
	var meta RunMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	awaitDone(t, ts, meta.ID)
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct{ Runs []RunMeta }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]int)
	for _, m := range list.Runs {
		ids[m.ID]++
	}
	if ids[meta.ID] != 1 {
		t.Fatalf("run listed %d times: %+v", ids[meta.ID], list.Runs)
	}
}
