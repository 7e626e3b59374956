package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parcoach"
	"parcoach/internal/chaos"
	"parcoach/internal/leakcheck"
)

// spinServeSrc loops effectively forever — the program a disconnect or
// watchdog test needs the daemon to be stuck inside.
const spinServeSrc = `
func main() {
	MPI_Init()
	var i = 0
	while i < 2000000000 {
		i = i + 1
	}
	MPI_Finalize()
}`

// disconnectBound is the asserted ceiling between a client disconnect
// and the daemon's accounting of it (handler returned, run aborted).
const disconnectBound = 10 * time.Second

// waitFor polls cond until it holds or the bound passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(disconnectBound)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s did not happen within %v", what, disconnectBound)
}

// TestRunClientDisconnectCancelsRun: a /run client that hangs up
// mid-run gets its run aborted within a bounded interval — the slot
// frees, the counters move, and the daemon serves the next request.
func TestRunClientDisconnectCancelsRun(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{})
	before := s.Snapshot()

	body, _ := json.Marshal(map[string]any{"name": "spin.mh", "source": spinServeSrc, "schedule": "rr"})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Let the request compile and enter the spinning run, then hang up.
	waitFor(t, "the run starting", func() bool { return s.Snapshot().Requests > before.Requests })
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request still returned a response")
	}
	waitFor(t, "the disconnect being counted", func() bool {
		st := s.Snapshot()
		return st.Robust.CanceledRequests > before.Robust.CanceledRequests &&
			st.Robust.CanceledRuns > before.Robust.CanceledRuns
	})

	// The daemon is healthy: the same artifact still answers.
	code, _ := postJSON(t, ts.URL+"/compile", map[string]any{"name": "clean.mh", "source": cleanSrc})
	if code != http.StatusOK {
		t.Fatalf("post-disconnect compile answered %d", code)
	}
}

// TestExploreStreamClientDisconnect is the hanging-then-disconnecting
// client regression: a streamed /explore whose client reads the start
// event and vanishes must cancel the exploration within a bounded
// interval instead of running the remaining budget for nobody.
func TestExploreStreamClientDisconnect(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{})
	before := s.Snapshot()

	// Slow every run down a little so the exploration is mid-flight —
	// deterministically — when the client hangs up.
	disarm := chaos.Arm(chaos.Config{
		"explore.run": {First: 1, Every: 1, Action: chaos.ActSleep, Sleep: 5 * time.Millisecond},
	})
	defer disarm()

	body, _ := json.Marshal(map[string]any{
		"name": "buggy.mh", "source": buggySrc,
		"strategy": "random", "schedules": maxSchedules, "workers": 2, "stream": true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/explore", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read the first event — the client is now demonstrably mid-stream —
	// then disconnect.
	if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || !strings.Contains(line, `"start"`) {
		t.Fatalf("first stream event %q, err %v", line, err)
	}
	cancel()

	waitFor(t, "the exploration being canceled", func() bool {
		st := s.Snapshot()
		return st.Robust.CanceledRequests > before.Robust.CanceledRequests
	})
	// The exploration stopped far short of its budget.
	if st := s.Snapshot(); st.Explore.Schedules-before.Explore.Schedules >= maxSchedules {
		t.Fatalf("disconnected exploration ran its full budget (%d schedules)", st.Explore.Schedules)
	}
}

// TestGuardedPanicAnswers500: a handler panic is quarantined at the
// middleware — the client gets a 500 with an error envelope, the
// counter moves, and the daemon keeps serving.
func TestGuardedPanicAnswers500(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{})
	disarm := chaos.Arm(chaos.Config{
		"serve.request": {First: 1, Action: chaos.ActPanic},
	})
	defer disarm()

	code, raw := postJSON(t, ts.URL+"/compile", map[string]any{"name": "clean.mh", "source": cleanSrc})
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500; body %s", code, raw)
	}
	if !strings.Contains(string(raw), "panic quarantined at serve.request") {
		t.Fatalf("500 body does not identify the quarantine: %s", raw)
	}
	if got := s.Snapshot().Robust.QuarantinedPanics; got != 1 {
		t.Fatalf("QuarantinedPanics = %d, want 1", got)
	}

	// Arrival 2 passes through: the daemon survived its own bug.
	code, _ = postJSON(t, ts.URL+"/compile", map[string]any{"name": "clean.mh", "source": cleanSrc})
	if code != http.StatusOK {
		t.Fatalf("post-panic compile answered %d", code)
	}
}

// TestRunTimeoutWatchdog: Config.RunTimeout turns a wedged run into an
// answered request with outcome "timeout" instead of a hung slot.
func TestRunTimeoutWatchdog(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{RunTimeout: 100 * time.Millisecond})
	before := s.Snapshot()

	code, raw := postJSON(t, ts.URL+"/run", map[string]any{
		"name": "spin.mh", "source": spinServeSrc, "schedule": "rr",
	})
	if code != http.StatusOK {
		t.Fatalf("watchdogged run answered %d: %s", code, raw)
	}
	res := decode[runResponse](t, raw)
	if res.Outcome != "timeout" {
		t.Fatalf("watchdogged run outcome %q, want timeout", res.Outcome)
	}
	if st := s.Snapshot(); st.Robust.WatchdogRuns <= before.Robust.WatchdogRuns {
		t.Fatal("watchdog abort not counted in /stats")
	}
}

// TestStatsSurfacesRobustness: the /stats payload carries the
// robustness section with all four counters present as JSON numbers.
func TestStatsSurfacesRobustness(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	var robust map[string]int64
	if err := json.Unmarshal(payload["robust"], &robust); err != nil {
		t.Fatalf("stats lacks a robust section: %v", err)
	}
	for _, key := range []string{"canceledRequests", "quarantinedPanics", "canceledRuns", "watchdogRuns"} {
		if _, ok := robust[key]; !ok {
			t.Errorf("robust section lacks %q: %s", key, payload["robust"])
		}
	}
}

// TestOversizedRequestsAnswered: a process count, team size, nesting of
// teams, array allocation, print output, schedule budget, worker count
// or PCT depth that would make one request allocate without bound — an
// out-of-memory error ends the process past every panic quarantine — is
// refused with a 400 or fails the run as a runtime error, and the daemon
// keeps answering.
func TestOversizedRequestsAnswered(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{})
	const wideSrc = `
func main() {
	MPI_Init()
	parallel num_threads(2000000000) {
		MPI_Barrier()
	}
	MPI_Finalize()
}`
	// 2 processes × 32³ threads: each team fits the width limit, the
	// nesting does not fit the live-thread limit.
	const nestedSrc = `
func main() {
	MPI_Init()
	parallel num_threads(32) {
		parallel num_threads(32) {
			parallel num_threads(32) {
				var x = tid()
			}
		}
	}
	MPI_Finalize()
}`
	const hugeArraySrc = `
func main() {
	MPI_Init()
	var a[268435456]
	MPI_Finalize()
}`
	const arrayLoopSrc = `
func main() {
	MPI_Init()
	for i = 0 .. 5 {
		var a[262144]
	}
	MPI_Finalize()
}`
	// Each print of the array is half the output budget, so the
	// second print of the run fails.
	const printLoopSrc = `
func main() {
	MPI_Init()
	var a[262144]
	var i = 0
	while i < 100 {
		print(a)
		i = i + 1
	}
	MPI_Finalize()
}`
	const widthLimit, threadLimit = "limit of 256", "limit of 1024 live threads"
	for _, tc := range []struct {
		name, path string
		body       map[string]any
		want       int    // 200 means the run must fail as a runtime error
		limit      string // what that runtime error names
	}{
		{"procs", "/run", map[string]any{"source": cleanSrc, "procs": 2_000_000_000}, http.StatusOK, widthLimit},
		{"threads", "/run", map[string]any{"source": cleanSrc, "threads": 2_000_000_000}, http.StatusOK, widthLimit},
		{"num_threads", "/run", map[string]any{"source": wideSrc}, http.StatusOK, widthLimit},
		{"nested", "/run", map[string]any{"source": nestedSrc, "maxSteps": 200_000}, http.StatusOK, threadLimit},
		{"nested-rr", "/run", map[string]any{"source": nestedSrc, "maxSteps": 200_000, "schedule": "rr"}, http.StatusOK, threadLimit},
		{"array", "/run", map[string]any{"source": hugeArraySrc}, http.StatusOK, "budget of 1048576 array elements (0 declared)"},
		// The fifth quarter of the budget is the one that fails.
		{"array-loop", "/run", map[string]any{"source": arrayLoopSrc, "procs": 1}, http.StatusOK, "budget of 1048576 array elements (1048576 declared)"},
		{"print-loop", "/run", map[string]any{"source": printLoopSrc}, http.StatusOK, "budget of 1048576 output bytes (524294 printed)"},
		{"schedules", "/explore", map[string]any{"source": cleanSrc, "schedules": 8_000_000_000}, http.StatusBadRequest, ""},
		{"workers", "/explore", map[string]any{"source": cleanSrc, "workers": 2_000_000_000}, http.StatusBadRequest, ""},
		{"pctDepth", "/explore", map[string]any{"source": cleanSrc, "strategy": "pct", "pctDepth": 1 << 40}, http.StatusBadRequest, ""},
	} {
		code, raw := postJSON(t, ts.URL+tc.path, tc.body)
		if code != tc.want {
			t.Fatalf("%s: answered %d, want %d: %s", tc.name, code, tc.want, raw)
		}
		if code == http.StatusOK {
			if res := decode[runResponse](t, raw); res.Outcome != "runtime-error" || !strings.Contains(res.Error, tc.limit) {
				t.Fatalf("%s: outcome %q (%s), want a runtime error naming %q", tc.name, res.Outcome, res.Error, tc.limit)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after oversized requests: %d", resp.StatusCode)
	}
}

// TestCompileCanceledNotCached: a /compile whose request context is
// already canceled leaves no error in the cache, so the next /compile
// of the same source compiles and answers with its diagnostics.
func TestCompileCanceledNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := map[string]any{"name": "buggy.mh", "source": buggySrc}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)).WithContext(ctx)
	s.ServeHTTP(httptest.NewRecorder(), r)

	code, raw := postJSON(t, ts.URL+"/compile", req)
	if code != http.StatusOK {
		t.Fatalf("compile after a canceled one: %d %s", code, raw)
	}
	resp := decode[compileResponse](t, raw)
	if resp.Cached || len(resp.Diagnostics) == 0 {
		t.Errorf("want a fresh compile with diagnostics, got %+v", resp)
	}
	if st := s.Snapshot(); st.Cache.Misses != 2 {
		t.Errorf("misses = %d, want 2: the canceled request's and the fresh compile", st.Cache.Misses)
	}
}

// TestFollowerOfCanceledCompile: a request parked on a compile in
// flight whose leader's context is canceled does not inherit the
// cancellation. A request with inline source compiles under its own
// context; a request by key finds the key unknown, as for an evicted
// entry.
func TestFollowerOfCanceledCompile(t *testing.T) {
	leakcheck.Check(t)
	for _, byKey := range []bool{false, true} {
		s := New(Config{})
		var opts parcoach.Options
		key := parcoach.CacheKey("buggy.mh", buggySrc, opts)
		leader := &artifact{key: key, name: "buggy.mh", ready: make(chan struct{})}
		s.mu.Lock()
		s.cache[key] = leader
		s.mu.Unlock()

		type result struct {
			a   *artifact
			err error
		}
		done := make(chan result, 1)
		go func() {
			var r result
			if byKey {
				r.a, r.err = s.lookup(context.Background(), key)
			} else {
				r.a, _, r.err = s.artifactFor(context.Background(), "buggy.mh", buggySrc, opts)
			}
			done <- r
		}()
		time.Sleep(50 * time.Millisecond) // let the follower park on ready
		// Act as the leader whose request was canceled mid-compile.
		leader.err = context.Canceled
		s.mu.Lock()
		delete(s.cache, key)
		s.mu.Unlock()
		close(leader.ready)

		var r result
		select {
		case r = <-done:
		case <-time.After(disconnectBound):
			t.Fatalf("byKey=%v: follower still parked %v after its leader gave up", byKey, disconnectBound)
		}
		switch {
		case r.err != nil:
			t.Errorf("byKey=%v: follower failed with its own context live: %v", byKey, r.err)
		case byKey && r.a != nil:
			t.Errorf("byKey=%v: lookup served the canceled compile (err %v), want an unknown key", byKey, r.a.err)
		case !byKey && (r.a == leader || r.a.err != nil || r.a.prog == nil):
			t.Errorf("byKey=%v: follower got err %v, want its own compile", byKey, r.a.err)
		}
	}
}
