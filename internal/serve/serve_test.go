package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"parcoach"
	"parcoach/internal/explore"
	"parcoach/internal/interp"
)

// buggySrc produces analysis warnings and instrumentation — the
// interesting case for diagnostics caching.
const buggySrc = `
func main() {
	MPI_Init()
	var x = 0
	if rank() == 0 {
		MPI_Bcast(x)
	}
	parallel num_threads(2) {
		MPI_Barrier()
	}
	MPI_Finalize()
}`

const cleanSrc = `
func main() {
	MPI_Init()
	MPI_Barrier()
	MPI_Finalize()
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad response %q: %v", raw, err)
	}
	return v
}

// wireReport and wireEvent read /explore answers as a client reads
// them: outcomes and strategies are names.
type wireReport struct {
	Key        string `json:"key"`
	Cached     bool   `json:"cached"`
	Strategy   string `json:"strategy"`
	Schedules  int    `json:"schedules"`
	Exhausted  bool   `json:"exhausted"`
	SleepSkips int    `json:"sleepSkips"`
	Diverged   int    `json:"diverged"`
	Verdicts   []struct {
		Outcome  string `json:"outcome"`
		Count    int    `json:"count"`
		First    int    `json:"first"`
		Error    string `json:"error"`
		Schedule string `json:"schedule"`
	} `json:"verdicts"`
	FirstFailure *struct {
		Outcome  string `json:"outcome"`
		Error    string `json:"error"`
		Schedule string `json:"schedule"`
		Index    int    `json:"index"`
	} `json:"firstFailure"`
	Canceled    bool `json:"canceled"`
	Quarantined int  `json:"quarantined"`
}

type wireEvent struct {
	Event    string      `json:"event"`
	Key      string      `json:"key"`
	Cached   bool        `json:"cached"`
	Done     int         `json:"done"`
	Outcome  string      `json:"outcome"`
	Error    string      `json:"error"`
	Schedule string      `json:"schedule"`
	Report   *wireReport `json:"report"`
}

// TestCompileCacheDiagnosticsByteIdentical: the second identical
// submission must hit the cache and serve diagnostics byte-identical to
// both the first response and a fresh out-of-band compile.
func TestCompileCacheDiagnosticsByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := map[string]any{"name": "buggy.mh", "source": buggySrc}

	code, raw := postJSON(t, ts.URL+"/compile", req)
	if code != http.StatusOK {
		t.Fatalf("first compile: %d %s", code, raw)
	}
	first := decode[compileResponse](t, raw)
	if first.Cached {
		t.Error("first compile claims cached")
	}
	if first.Key == "" || len(first.Diagnostics) == 0 || !first.Instrumented {
		t.Fatalf("unexpected first response: %+v", first)
	}

	code, raw2 := postJSON(t, ts.URL+"/compile", req)
	if code != http.StatusOK {
		t.Fatalf("second compile: %d %s", code, raw2)
	}
	second := decode[compileResponse](t, raw2)
	if !second.Cached {
		t.Error("second compile missed the cache")
	}
	second.Cached = first.Cached
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cache hit differs from miss:\n%+v\n%+v", first, second)
	}

	// Ground truth: a fresh compile outside the daemon renders the same
	// diagnostic lines in the same order.
	prog, err := parcoach.Compile("buggy.mh", buggySrc, parcoach.Options{Mode: parcoach.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string
	for _, d := range prog.Diagnostics() {
		fresh = append(fresh, d.String())
	}
	if !reflect.DeepEqual(first.Diagnostics, fresh) {
		t.Errorf("cached diagnostics differ from fresh compile:\n%v\n%v", first.Diagnostics, fresh)
	}
	if parcoach.CacheKey("buggy.mh", buggySrc, parcoach.Options{Mode: parcoach.ModeFull}) != first.Key {
		t.Error("served key does not match CacheKey")
	}

	st := s.Snapshot()
	if st.Cache.Misses != 1 || st.Cache.Hits < 1 {
		t.Errorf("stats: misses=%d hits=%d, want 1 miss and ≥1 hit", st.Cache.Misses, st.Cache.Hits)
	}
}

// TestCompileErrorCached: compile failures are answered 422 and cached —
// the same broken source does not recompile.
func TestCompileErrorCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := map[string]any{"name": "bad.mh", "source": "func main( {"}
	for i := 0; i < 2; i++ {
		code, raw := postJSON(t, ts.URL+"/compile", req)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("attempt %d: status %d %s", i, code, raw)
		}
	}
	if st := s.Snapshot(); st.Cache.Misses != 1 {
		t.Errorf("broken source recompiled: %d misses", st.Cache.Misses)
	}
}

// TestSingleflight: concurrent identical submissions compile exactly
// once; exactly one response reports cached=false.
func TestSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const n = 8
	var wg sync.WaitGroup
	results := make([]compileResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, raw := postJSON(t, ts.URL+"/compile",
				map[string]any{"name": "clean.mh", "source": cleanSrc})
			if code == http.StatusOK {
				json.Unmarshal(raw, &results[i])
			}
		}(i)
	}
	wg.Wait()
	var misses int
	for i, r := range results {
		if r.Key == "" {
			t.Fatalf("request %d failed", i)
		}
		if r.Key != results[0].Key {
			t.Fatalf("divergent keys: %s vs %s", r.Key, results[0].Key)
		}
		if !r.Cached {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d requests compiled, want exactly 1", misses)
	}
	if st := s.Snapshot(); st.Cache.Misses != 1 {
		t.Errorf("stats count %d misses, want 1", st.Cache.Misses)
	}
}

// TestBackpressure: with every slot held and the queue full, the next
// request is shed with 429 + Retry-After instead of waiting.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	s.slots <- struct{}{} // occupy the only slot

	// One request parks in the queue.
	queuedDone := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, ts.URL+"/compile",
			map[string]any{"name": "clean.mh", "source": cleanSrc})
		queuedDone <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: the next arrival must be rejected, now.
	resp, err := http.Post(ts.URL+"/compile", "application/json",
		bytes.NewReader([]byte(`{"name":"x.mh","source":"func main() { MPI_Init() MPI_Finalize() }"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	<-s.slots // release; the queued request proceeds
	if code := <-queuedDone; code != http.StatusOK {
		t.Fatalf("queued request finished with %d", code)
	}
	if st := s.Snapshot(); st.Queue.Rejected != 1 {
		t.Errorf("rejected=%d, want 1", st.Queue.Rejected)
	}
}

// TestRunEndpoint: a clean run by key, including output capture and a
// 404 for an unknown key.
func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, raw := postJSON(t, ts.URL+"/compile", map[string]any{"name": "clean.mh", "source": cleanSrc})
	if code != http.StatusOK {
		t.Fatalf("compile: %d %s", code, raw)
	}
	key := decode[compileResponse](t, raw).Key

	code, raw = postJSON(t, ts.URL+"/run", map[string]any{"key": key, "procs": 2})
	if code != http.StatusOK {
		t.Fatalf("run: %d %s", code, raw)
	}
	run := decode[runResponse](t, raw)
	if run.Outcome != "clean" || run.Error != "" {
		t.Fatalf("clean program ran dirty: %+v", run)
	}
	if run.Stats.Steps == 0 {
		t.Error("run stats empty")
	}
	if !statsShape.Match(raw) {
		t.Errorf("stats object lost its keys or their order: %s", raw)
	}

	code, raw = postJSON(t, ts.URL+"/run", map[string]any{"key": "sha256:feedface"})
	if code != http.StatusNotFound {
		t.Fatalf("unknown key: %d %s", code, raw)
	}
}

// statsShape is the /run stats object: every key, in order.
var statsShape = regexp.MustCompile(`"stats":\{"collectives":\d+,"p2pMessages":\d+,"barriers":\d+,"steps":\d+,"ccChecks":\d+,"phaseChecks":\d+,"valueChecks":\d+\}`)

// TestExploreStreamAndReplay is the end-to-end contract: a streamed DFS
// exploration of the planted racer must surface the deadlock as a
// verdict delta and a failure event whose replay token, fed back to
// /run against the same cached artifact, reproduces the deadlock.
func TestExploreStreamAndReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{
		"name": "racer.mh", "source": explore.BenchRacerSrc,
		"strategy": "dfs", "schedules": 256, "workers": 4,
		"stream": true, "progressEvery": 16,
	})
	resp, err := http.Post(ts.URL+"/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}

	var (
		events  []wireEvent
		scanner = bufio.NewScanner(resp.Body)
	)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scanner.Scan() {
		var ev wireEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		events = append(events, ev)
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 || events[0].Event != "start" || events[0].Key == "" {
		t.Fatalf("bad stream shape: %+v", events)
	}
	last := events[len(events)-1]
	if last.Event != "report" || last.Report == nil {
		t.Fatalf("stream did not end with a report: %+v", last)
	}
	var failure *wireEvent
	verdicts := map[string]bool{}
	for i := range events[1 : len(events)-1] {
		ev := &events[1+i]
		switch ev.Event {
		case "verdict":
			if verdicts[ev.Outcome] {
				t.Errorf("outcome %s streamed as a verdict twice", ev.Outcome)
			}
			verdicts[ev.Outcome] = true
		case "failure":
			if failure == nil {
				failure = ev
			}
		}
	}
	if failure == nil || failure.Schedule == "" || failure.Outcome != "deadlock" {
		t.Fatalf("racer exploration streamed no deadlock failure: %+v", failure)
	}
	if len(verdicts) != len(last.Report.Verdicts) {
		t.Errorf("streamed %d verdict classes, report has %d", len(verdicts), len(last.Report.Verdicts))
	}

	// Feed the failure token back: same artifact (by key), same run
	// parameters — the replay must reproduce the deadlock.
	code, raw := postJSON(t, ts.URL+"/run", map[string]any{
		"key": events[0].Key, "schedule": failure.Schedule,
	})
	if code != http.StatusOK {
		t.Fatalf("replay: %d %s", code, raw)
	}
	replay := decode[runResponse](t, raw)
	if replay.Outcome != "deadlock" || replay.Diverged {
		t.Fatalf("replay did not reproduce: %+v", replay)
	}

	st := s.Snapshot()
	if st.Sessions.Warm == 0 {
		t.Error("no warm sessions after exploration")
	}
	if st.Explore.Schedules < int64(last.Report.Schedules) {
		t.Errorf("stats count %d schedules, report ran %d", st.Explore.Schedules, last.Report.Schedules)
	}
	if st.Explore.SchedulesPerSec <= 0 {
		t.Error("schedules/sec not measured")
	}
}

// TestRunReplayDiverged: a /run replay that does not reproduce its
// token answers "diverged": true, both when the token names a thread
// that is not enabled at a branch point and when the run passes fewer
// branch points than the token holds. The racer's reported failing
// token itself replays without diverging.
func TestRunReplayDiverged(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, raw := postJSON(t, ts.URL+"/explore", map[string]any{
		"name": "racer.mh", "source": explore.BenchRacerSrc,
		"strategy": "dfs", "schedules": 256,
	})
	if code != http.StatusOK {
		t.Fatalf("explore: %d %s", code, raw)
	}
	rep := decode[wireReport](t, raw)
	if rep.FirstFailure == nil {
		t.Fatalf("racer exploration found no failure: %s", raw)
	}
	exact := rep.FirstFailure.Schedule
	for _, tc := range []struct {
		token    string
		diverged bool
	}{
		{exact, false},
		{"trace:9", true},
		{exact + ".0", true},
	} {
		code, raw := postJSON(t, ts.URL+"/run", map[string]any{"key": rep.Key, "schedule": tc.token})
		if code != http.StatusOK {
			t.Fatalf("replay of %q: %d %s", tc.token, code, raw)
		}
		if got := decode[runResponse](t, raw); got.Diverged != tc.diverged {
			t.Errorf("replay of %q: diverged %t, want %t: %s", tc.token, got.Diverged, tc.diverged, raw)
		}
	}
}

// flagReadSrc is the flag-read racer: a plain read races a nowait
// single's write, and about 100 DFS schedules exhaust it, so a budget
// of 16 truncates.
const flagReadSrc = `
func main() {
	MPI_Init()
	var flag = 0
	var join = 0
	parallel num_threads(2) {
		single nowait { flag = 1 }
		if tid() == 1 {
			if flag == 0 {
				join = 1
			}
		}
	}
	if join == 1 {
		MPI_Barrier()
	}
	MPI_Finalize()
}`

// TestExploreUnstreamed: the plain JSON report path. A DFS the budget
// cuts short answers the same report at any worker count.
func TestExploreUnstreamed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, raw := postJSON(t, ts.URL+"/explore", map[string]any{
		"name": "racer.mh", "source": explore.BenchRacerSrc,
		"strategy": "random", "schedules": 16, "seed": 1,
	})
	if code != http.StatusOK {
		t.Fatalf("explore: %d %s", code, raw)
	}
	rep := decode[wireReport](t, raw)
	if rep.Strategy != "random" || rep.Schedules != 16 || len(rep.Verdicts) == 0 {
		t.Fatalf("bad report: %+v", rep)
	}

	// There is one DFS and no frontier selector: a request still naming
	// one is refused like any other unknown field.
	code, raw = postJSON(t, ts.URL+"/explore", map[string]any{
		"name": "racer.mh", "source": explore.BenchRacerSrc,
		"strategy": "dfs", "frontier": "dpor",
	})
	if code != http.StatusBadRequest || !bytes.Contains(raw, []byte(`unknown field \"frontier\"`)) {
		t.Fatalf("explore with a frontier field: %d %s", code, raw)
	}

	// Compile first, so both explorations answer from the cache.
	if code, raw := postJSON(t, ts.URL+"/compile", map[string]any{"name": "flag-read.mh", "source": flagReadSrc}); code != http.StatusOK {
		t.Fatalf("compile: %d %s", code, raw)
	}
	var reports [2][]byte
	for i, workers := range []int{1, 4} {
		code, raw := postJSON(t, ts.URL+"/explore", map[string]any{
			"name": "flag-read.mh", "source": flagReadSrc,
			"strategy": "dfs", "schedules": 16, "workers": workers,
		})
		if code != http.StatusOK {
			t.Fatalf("dfs at %d workers: %d %s", workers, code, raw)
		}
		if rep := decode[wireReport](t, raw); rep.Exhausted || rep.Schedules != 16 {
			t.Fatalf("dfs at %d workers: want a report truncated at 16 schedules, got %s", workers, raw)
		}
		reports[i] = raw
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("truncated DFS report differs across workers:\n workers=1: %s\n workers=4: %s", reports[0], reports[1])
	}
}

// TestEviction: the cache honors its cap, evicting least-recently-used
// entries; an evicted key answers 404.
func TestEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheCap: 2})
	keys := make([]string, 3)
	for i := range keys {
		code, raw := postJSON(t, ts.URL+"/compile", map[string]any{
			"name":   fmt.Sprintf("p%d.mh", i),
			"source": cleanSrc + fmt.Sprintf("\n// %d\n", i),
		})
		if code != http.StatusOK {
			t.Fatalf("compile %d: %d %s", i, code, raw)
		}
		keys[i] = decode[compileResponse](t, raw).Key
	}
	if st := s.Snapshot(); st.Cache.Entries != 2 || st.Cache.Evicted != 1 {
		t.Fatalf("entries=%d evicted=%d, want 2/1", st.Cache.Entries, st.Cache.Evicted)
	}
	code, _ := postJSON(t, ts.URL+"/run", map[string]any{"key": keys[0]})
	if code != http.StatusNotFound {
		t.Errorf("evicted key answered %d, want 404", code)
	}
}

// TestHealthz: liveness answers without taking a slot.
func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	s.slots <- struct{}{} // saturate
	defer func() { <-s.slots }()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// wrongOpSrc carries a value bug the static phase also warns about:
// rank 0 reduces with max while the others reduce with sum.
const wrongOpSrc = `
func main() {
	MPI_Init()
	var x = rank() + 2
	if rank() == 0 {
		MPI_Allreduce(x, x, max)
	} else {
		MPI_Allreduce(x, x, sum)
	}
	MPI_Finalize()
}`

// tornSrc races a nowait team worker's rewrite of the collective's
// source buffer against the collective itself — the schedule-dependent
// value-bug shape.
const tornSrc = `
func main() {
	MPI_Init()
	var src[4]
	var dst[4]
	for i = 0 .. 4 {
		src[i] = i + 1
	}
	parallel num_threads(2) {
		single nowait {
			for j = 0 .. 4 {
				src[j] = src[j] + 100
			}
		}
		single {
			MPI_Alltoall(dst, src)
		}
	}
	MPI_Finalize()
}`

// TestValueBugCachedDiagnosticsAndRun: a value-bug program's cached
// compile answer is byte-identical to the miss, and /run on the warm
// artifact reports the value oracle's verdict deterministically.
func TestValueBugCachedDiagnosticsAndRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{"name": "wrongop.mh", "source": wrongOpSrc}

	code, raw := postJSON(t, ts.URL+"/compile", req)
	if code != http.StatusOK {
		t.Fatalf("compile: %d %s", code, raw)
	}
	first := decode[compileResponse](t, raw)
	if len(first.Diagnostics) == 0 {
		t.Fatalf("wrong-op program compiled without a static warning: %+v", first)
	}
	code, raw2 := postJSON(t, ts.URL+"/compile", req)
	if code != http.StatusOK {
		t.Fatalf("second compile: %d %s", code, raw2)
	}
	second := decode[compileResponse](t, raw2)
	if !second.Cached {
		t.Error("second compile missed the cache")
	}
	a, _ := json.Marshal(first.Diagnostics)
	b, _ := json.Marshal(second.Diagnostics)
	if !bytes.Equal(a, b) {
		t.Errorf("cached diagnostics not byte-identical:\n%s\n%s", a, b)
	}

	for i := 0; i < 2; i++ {
		code, raw = postJSON(t, ts.URL+"/run", map[string]any{"key": first.Key, "procs": 2})
		if code != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, code, raw)
		}
		run := decode[runResponse](t, raw)
		if run.Outcome != "value-error" || !strings.Contains(run.Error, "wrong-op") {
			t.Fatalf("run %d: value bug not caught by the oracle: %+v", i, run)
		}
	}
}

// TestExploreStreamValueVerdict: the schedule-dependent torn-buffer race
// surfaces through the streamed NDJSON protocol as a value-error verdict
// delta with a replayable schedule, and the replayed token reproduces
// the oracle abort on the same cached artifact.
func TestExploreStreamValueVerdict(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{
		"name": "torn.mh", "source": tornSrc,
		"strategy": "random", "schedules": 16, "procs": 2, "threads": 2,
		"stream": true,
	})
	resp, err := http.Post(ts.URL+"/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var (
		key     string
		verdict *wireEvent
		scanner = bufio.NewScanner(resp.Body)
	)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scanner.Scan() {
		var ev wireEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		if ev.Event == "start" {
			key = ev.Key
		}
		if ev.Event == "verdict" && ev.Outcome == "value-error" && verdict == nil {
			verdict = &ev
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if verdict == nil || verdict.Schedule == "" {
		t.Fatal("torn-buffer exploration streamed no value-error verdict")
	}
	if !strings.Contains(verdict.Error, "torn-buffer") {
		t.Errorf("verdict error does not name the check: %q", verdict.Error)
	}

	code, raw := postJSON(t, ts.URL+"/run", map[string]any{
		"key": key, "procs": 2, "threads": 2, "schedule": verdict.Schedule,
	})
	if code != http.StatusOK {
		t.Fatalf("replay: %d %s", code, raw)
	}
	replay := decode[runResponse](t, raw)
	if replay.Outcome != "value-error" || replay.Diverged {
		t.Fatalf("replay did not reproduce the torn buffer: %+v", replay)
	}
}

// TestExploreStreamMidRunError: an exploration that dies mid-stream must
// still end the NDJSON stream with a terminal typed error event — the
// HTTP status is long committed, so silent truncation is the only other
// observable, and clients cannot tell it from a network fault.
func TestExploreStreamMidRunError(t *testing.T) {
	old := exploreStream
	exploreStream = func(sess *interp.Session, opts explore.Options) *explore.Report {
		opts.Progress(explore.ProgressEvent{Done: 1})
		panic("injected mid-run failure")
	}
	t.Cleanup(func() { exploreStream = old })

	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{
		"name": "clean.mh", "source": cleanSrc,
		"strategy": "random", "schedules": 4,
		"stream": true, "progressEvery": 1,
	})
	resp, err := http.Post(ts.URL+"/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: %d", resp.StatusCode)
	}
	var events []wireEvent
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		var ev wireEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		events = append(events, ev)
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 || events[0].Event != "start" {
		t.Fatalf("bad stream shape: %+v", events)
	}
	last := events[len(events)-1]
	if last.Event != "error" || !strings.Contains(last.Error, "injected mid-run failure") {
		t.Fatalf("stream did not end with a typed error event: %+v", last)
	}
	for _, ev := range events {
		if ev.Event == "report" {
			t.Fatalf("failed exploration still emitted a report: %+v", ev)
		}
	}
}

// electSrc has one elected thread of a two-thread team call
// MPI_Barrier: legal under MPI_THREAD_MULTIPLE, a usage error under
// MPI_THREAD_FUNNELED whenever the election picks a worker thread.
const electSrc = `
func main() {
	MPI_Init()
	parallel num_threads(2) {
		single {
			MPI_Barrier()
		}
	}
	print(rank())
	MPI_Finalize()
}`

// TestExploreRunFlags: the run block's level and policy reach every
// explored run.
func TestExploreRunFlags(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tests := []struct {
		level, policy string
		schedules     int
		verdicts      map[string]int
	}{
		{"", "", 9, map[string]int{"clean": 9}},
		{"funneled", "", 7, map[string]int{"clean": 4, "mpi-error": 3}},
		{"funneled", "round-robin", 3, map[string]int{"mpi-error": 3}},
	}
	for _, tc := range tests {
		code, raw := postJSON(t, ts.URL+"/explore", map[string]any{
			"name": "elect.mh", "source": electSrc, "strategy": "dfs",
			"level": tc.level, "policy": tc.policy,
		})
		if code != http.StatusOK {
			t.Fatalf("level %q policy %q: %d %s", tc.level, tc.policy, code, raw)
		}
		rep := decode[wireReport](t, raw)
		got := make(map[string]int)
		for _, v := range rep.Verdicts {
			got[v.Outcome] = v.Count
		}
		if rep.Schedules != tc.schedules || !rep.Exhausted || !reflect.DeepEqual(got, tc.verdicts) {
			t.Errorf("level %q policy %q: %d schedules (exhausted %t) %v, want %d exhausted %v",
				tc.level, tc.policy, rep.Schedules, rep.Exhausted, got, tc.schedules, tc.verdicts)
		}
		if f := rep.FirstFailure; tc.level != "" && (f == nil || !strings.Contains(f.Error, "MPI_THREAD_FUNNELED")) {
			t.Errorf("level %q policy %q: first failure %+v does not name MPI_THREAD_FUNNELED", tc.level, tc.policy, f)
		}
	}
}

// TestUnknownRunFlags: /run and /explore answer 400 to an unknown
// level or policy, naming the accepted values.
func TestUnknownRunFlags(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	accepted := map[string]string{
		"level":  "single|funneled|serialized|multiple",
		"policy": "first-arrival|round-robin",
	}
	for _, path := range []string{"/run", "/explore"} {
		for field, want := range accepted {
			code, raw := postJSON(t, ts.URL+path, map[string]any{
				"name": "clean.mh", "source": cleanSrc, field: "bogus",
			})
			if code != http.StatusBadRequest || !bytes.Contains(raw, []byte(want)) {
				t.Errorf("%s with %s \"bogus\": %d %s, want 400 naming %s", path, field, code, raw, want)
			}
		}
	}
}

// TestWarmSessionCap: a client varying its run block from request to
// request cannot grow one artifact's warm sessions past the cap, and
// the requests past it still run.
func TestWarmSessionCap(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 64; i++ {
		code, raw := postJSON(t, ts.URL+"/run", map[string]any{
			"name": "clean.mh", "source": cleanSrc, "maxSteps": 1000 + i,
		})
		if code != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, code, raw)
		}
		if run := decode[runResponse](t, raw); run.Outcome != "clean" {
			t.Fatalf("run %d: %+v", i, run)
		}
	}
	if warm := s.Snapshot().Sessions.Warm; warm != maxWarmSessions {
		t.Fatalf("%d warm sessions after 64 distinct run blocks, want the cap of %d", warm, maxWarmSessions)
	}
}
