// The JSON API: request/response shapes and the three POST endpoints.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"parcoach"
	"parcoach/internal/explore"
	"parcoach/internal/interp"
	"parcoach/internal/mpi"
	"parcoach/internal/omp"
	"parcoach/internal/sched"
)

// writeCompileError distinguishes the client's fault from ours: a
// normal compile error is 422 (the source is broken), a quarantined
// compiler panic is 500 (the compiler is broken — retrying the same
// source cannot help, but other sources are fine).
func writeCompileError(w http.ResponseWriter, err error) {
	var qe *interp.QuarantineError
	if errors.As(err, &qe) {
		writeError(w, http.StatusInternalServerError, "compile failed: %v", err)
		return
	}
	writeError(w, http.StatusUnprocessableEntity, "compile failed: %v", err)
}

// compileSpec names a program: either a key from a previous /compile, or
// inline source with compile options. Embedded by every request type.
type compileSpec struct {
	// Key is the content address returned by /compile; mutually
	// exclusive with Source.
	Key string `json:"key,omitempty"`
	// Name and Source submit a program inline (Name defaults to
	// "input.mh"; it participates in the cache key because diagnostics
	// embed it).
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
	// Mode is "baseline", "analyze" or "full" (default "full").
	Mode string `json:"mode,omitempty"`
	// Initial is "mono" or "multi" (the analysis' starting context).
	Initial string `json:"initial,omitempty"`
	// RawPDF disables the rank-dependence refinement (ablation).
	RawPDF bool `json:"rawPDF,omitempty"`
}

func (c *compileSpec) options() (parcoach.Options, error) {
	var opts parcoach.Options
	switch c.Mode {
	case "", "full":
		opts.Mode = parcoach.ModeFull
	case "analyze":
		opts.Mode = parcoach.ModeAnalyze
	case "baseline":
		opts.Mode = parcoach.ModeBaseline
	default:
		return opts, fmt.Errorf("unknown mode %q (want baseline|analyze|full)", c.Mode)
	}
	switch c.Initial {
	case "", "mono":
		opts.Initial = parcoach.ContextMonothreaded
	case "multi":
		opts.Initial = parcoach.ContextMultithreaded
	default:
		return opts, fmt.Errorf("unknown initial context %q (want mono|multi)", c.Initial)
	}
	opts.RawPDF = c.RawPDF
	return opts, nil
}

// resolve turns the spec into a ready artifact. A nil artifact with a
// written response means the handler is done (error already sent).
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, c *compileSpec) (*artifact, bool) {
	if c.Key != "" && c.Source != "" {
		writeError(w, http.StatusBadRequest, "give key or source, not both")
		return nil, false
	}
	if c.Key != "" {
		a, err := s.lookup(r.Context(), c.Key)
		if err != nil {
			return nil, false // client gone
		}
		if a == nil {
			writeError(w, http.StatusNotFound, "unknown artifact key %q (evicted or never compiled here)", c.Key)
			return nil, false
		}
		return a, true
	}
	if c.Source == "" {
		writeError(w, http.StatusBadRequest, "empty source (give key or source)")
		return nil, false
	}
	opts, err := c.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	name := c.Name
	if name == "" {
		name = "input.mh"
	}
	a, cached, err := s.artifactFor(r.Context(), name, c.Source, opts)
	if err != nil {
		return nil, false // client gone mid-singleflight
	}
	return a, cached
}

// runSpec is the shared run-parameter block of /run and /explore, and
// the identity of the artifact's warm session that serves it.
type runSpec struct {
	Procs    int    `json:"procs,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	Level    string `json:"level,omitempty"`  // single|funneled|serialized|multiple
	Policy   string `json:"policy,omitempty"` // first-arrival|round-robin
	MaxSteps int64  `json:"maxSteps,omitempty"`
	// Uninstrumented runs the pristine source even when the artifact has
	// an instrumented tree (the "what happens on a real machine" view).
	Uninstrumented bool `json:"uninstrumented,omitempty"`
}

// runOptions parses the run block into the session configuration,
// with the server's watchdog bound.
func (s *Server) runOptions(rs runSpec) (interp.Options, error) {
	opts := interp.Options{
		Procs:       rs.Procs,
		Threads:     rs.Threads,
		MaxSteps:    rs.MaxSteps,
		WallTimeout: s.cfg.RunTimeout,
	}
	var err error
	if rs.Level != "" {
		if opts.Level, err = mpi.ParseThreadLevel(rs.Level); err != nil {
			return opts, err
		}
	}
	if rs.Policy != "" {
		opts.Policy, err = omp.ParsePolicy(rs.Policy)
	}
	return opts, err
}

//
// POST /compile
//

type compileRequest struct {
	compileSpec
}

type compileResponse struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	// Diagnostics is the full analysis output, one rendered line each —
	// byte-identical between a cache hit and a fresh compile.
	Diagnostics []string `json:"diagnostics"`
	// WarningKinds is the sorted deduplicated error-class kinds (the
	// static verdict).
	WarningKinds []string `json:"warningKinds"`
	Functions    int      `json:"functions"`
	Statements   int      `json:"statements"`
	Instrumented bool     `json:"instrumented"`
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req compileRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Key != "" {
		writeError(w, http.StatusBadRequest, "/compile takes source, not a key")
		return
	}
	a, cached := s.resolve(w, r, &req.compileSpec)
	if a == nil {
		return
	}
	if a.err != nil {
		writeCompileError(w, a.err)
		return
	}
	writeJSON(w, compileResult(a, cached))
}

func compileResult(a *artifact, cached bool) compileResponse {
	p := a.prog
	resp := compileResponse{
		Key:          a.key,
		Cached:       cached,
		Diagnostics:  []string{},
		WarningKinds: p.WarningKinds(),
		Functions:    p.Stats.Functions,
		Statements:   p.Stats.Statements,
		Instrumented: p.Instrumented != nil,
	}
	if resp.WarningKinds == nil {
		resp.WarningKinds = []string{}
	}
	for _, d := range p.Diagnostics() {
		resp.Diagnostics = append(resp.Diagnostics, d.String())
	}
	return resp
}

//
// POST /run
//

type runRequest struct {
	compileSpec
	runSpec
	// Schedule is a replay token (rr, rand:<seed>, pct:<seed>:<depth>,
	// trace:...); empty runs the default schedule.
	Schedule string `json:"schedule,omitempty"`
}

type runResponse struct {
	Key     string       `json:"key"`
	Cached  bool         `json:"cached"`
	Outcome string       `json:"outcome"`
	Error   string       `json:"error,omitempty"`
	Output  string       `json:"output"`
	Stats   interp.Stats `json:"stats"`
	// Diverged is true when a trace replay stopped matching the program:
	// whatever ran was NOT the recorded schedule.
	Diverged bool `json:"diverged,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !decodeInto(w, r, &req) {
		return
	}
	var scheduler sched.Scheduler
	if req.Schedule != "" {
		var err error
		if scheduler, err = sched.Parse(req.Schedule); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if req.MaxSteps == 0 {
			// Match the exploration default so replay tokens minted by
			// /explore reproduce under the bound they were found with.
			req.MaxSteps = explore.DefaultMaxSteps
		}
	}
	runOpts, err := s.runOptions(req.runSpec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	a, cached := s.resolve(w, r, &req.compileSpec)
	if a == nil {
		return
	}
	if a.err != nil {
		writeCompileError(w, a.err)
		return
	}
	res := a.session(req.runSpec, runOpts).RunCtx(r.Context(), scheduler)
	resp := runResponse{
		Key:      a.key,
		Cached:   cached,
		Outcome:  res.Outcome().String(),
		Output:   res.Output,
		Stats:    res.Stats,
		Diverged: res.Diverged,
	}
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	writeJSON(w, resp)
}

//
// POST /explore
//

type exploreRequest struct {
	compileSpec
	runSpec
	// Strategy is rr|random|pct|dfs (default random); dfs enumerates
	// the schedule space under dynamic partial-order reduction.
	Strategy string `json:"strategy,omitempty"`
	// Schedules is the run budget (at most maxSchedules) and PCTDepth
	// the PCT priority-change depth (at most sched.MaxPCTDepth); larger
	// values answer 400.
	Schedules int   `json:"schedules,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	PCTDepth  int   `json:"pctDepth,omitempty"`
	// Workers widths the exploration's run fan-out (0 = GOMAXPROCS, at
	// most maxWorkers). The report does not depend on it.
	Workers int `json:"workers,omitempty"`
	// Stream switches the response to NDJSON: one JSON object per line —
	// "start", then "verdict" (first run of each outcome class),
	// "failure" (first non-clean run, with its replay token), "progress"
	// heartbeats, and a final "report".
	Stream bool `json:"stream,omitempty"`
	// ProgressEvery is the heartbeat period in completed runs (streamed
	// mode; default 64, minimum 1).
	ProgressEvery int `json:"progressEvery,omitempty"`
}

type verdictJSON struct {
	Outcome string `json:"outcome"`
	Count   int    `json:"count"`
	First   int    `json:"first"`
	Error   string `json:"error,omitempty"`
	// Schedule replays the first run of this class (also accepted by
	// hybridrun -replay).
	Schedule string `json:"schedule"`
}

type failureJSON struct {
	Outcome  string `json:"outcome"`
	Error    string `json:"error"`
	Schedule string `json:"schedule"`
	Index    int    `json:"index"`
}

type reportJSON struct {
	Key        string        `json:"key"`
	Cached     bool          `json:"cached"`
	Strategy   string        `json:"strategy"`
	Schedules  int           `json:"schedules"`
	Exhausted  bool          `json:"exhausted"`
	SleepSkips int           `json:"sleepSkips"`
	Diverged   int           `json:"diverged"`
	Verdicts   []verdictJSON `json:"verdicts"`
	// FirstFailure is the earliest failing schedule in canonical order,
	// nil when the explored space is clean.
	FirstFailure *failureJSON `json:"firstFailure"`
	// Canceled marks a partial report (client disconnect or timeout cut
	// the exploration short); Quarantined counts runs whose panic was
	// caught and classified as internal-error.
	Canceled    bool `json:"canceled,omitempty"`
	Quarantined int  `json:"quarantined,omitempty"`
}

// streamEvent is one NDJSON line of a streamed exploration.
type streamEvent struct {
	Event string `json:"event"` // start|verdict|failure|progress|error|report
	// start
	Key    string `json:"key,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	// verdict/failure/progress
	Done     int    `json:"done,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
	Error    string `json:"error,omitempty"`
	Schedule string `json:"schedule,omitempty"`
	// report
	Report *reportJSON `json:"report,omitempty"`
}

// Exploration request bounds on outside input. The schedule budget
// caps the run time one request can hold the daemon for. The worker
// count caps its concurrent runs: the pool starts one per worker, each
// holding a run's state, so past it one request could exhaust the
// daemon's memory and end the process where the panic quarantine
// cannot catch it.
const (
	maxSchedules = 1 << 16
	maxWorkers   = 256
)

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req exploreRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Schedules > maxSchedules {
		writeError(w, http.StatusBadRequest, "schedules %d above the limit of %d", req.Schedules, maxSchedules)
		return
	}
	if req.Workers > maxWorkers {
		writeError(w, http.StatusBadRequest, "workers %d above the limit of %d", req.Workers, maxWorkers)
		return
	}
	// The PCT sampler draws depth-1 change points before its first
	// decision, and a deeper token would not replay through /run.
	if req.PCTDepth > sched.MaxPCTDepth {
		writeError(w, http.StatusBadRequest, "pctDepth %d above the limit of %d", req.PCTDepth, sched.MaxPCTDepth)
		return
	}
	opts := explore.Options{
		Schedules: req.Schedules,
		Seed:      req.Seed,
		PCTDepth:  req.PCTDepth,
		Workers:   req.Workers,
	}
	if req.Strategy != "" {
		var err error
		if opts.Strategy, err = explore.ParseStrategy(req.Strategy); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		opts.Strategy = explore.StrategyRandom
	}
	// The exploration step budget defaults below the interpreter's plain
	// default (spinning schedules must classify, not hang the budget);
	// the run block keys the warm session with the defaulted value, so
	// /run replays of streamed tokens land on the same session.
	if req.MaxSteps <= 0 {
		req.MaxSteps = explore.DefaultMaxSteps
	}
	runOpts, err := s.runOptions(req.runSpec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	a, cached := s.resolve(w, r, &req.compileSpec)
	if a == nil {
		return
	}
	if a.err != nil {
		writeCompileError(w, a.err)
		return
	}
	// The request context threads through the whole exploration: a client
	// disconnect cancels the frontier within one run, and the report that
	// falls out is the well-formed partial (Canceled=true).
	opts.Ctx = r.Context()
	sess := a.session(req.runSpec, runOpts)

	if !req.Stream {
		start := time.Now()
		rep := explore.ExploreSession(sess, opts)
		s.noteExplore(rep, start)
		writeJSON(w, renderReport(rep, a.key, cached))
		return
	}

	// Streamed mode: NDJSON, one event per line, flushed as produced.
	// Progress callbacks arrive serialized (the engine's sink holds a
	// lock across delivery), and the handler itself only writes before
	// the exploration starts and after it returns, so the writer needs
	// no extra locking.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev streamEvent) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(streamEvent{Event: "start", Key: a.key, Cached: cached})

	every := req.ProgressEvery
	if every <= 0 {
		every = 64
	}
	var failed bool
	opts.Progress = func(ev explore.ProgressEvent) {
		switch {
		case ev.NewVerdict:
			out := streamEvent{Event: "verdict", Done: ev.Done,
				Outcome: ev.Outcome.String(), Error: ev.Err, Schedule: ev.Schedule}
			emit(out)
			if ev.Outcome != interp.OutcomeClean && !failed {
				failed = true
				out.Event = "failure"
				emit(out)
			}
		case ev.Done%every == 0:
			emit(streamEvent{Event: "progress", Done: ev.Done})
		}
	}
	start := time.Now()
	rep, err := runExploreStream(sess, opts)
	if err != nil {
		// The stream has already begun (the start event is out, the HTTP
		// status is committed), so the failure must reach the client as a
		// terminal typed record — never a silent mid-stream truncation.
		emit(streamEvent{Event: "error", Error: err.Error()})
		return
	}
	s.noteExplore(rep, start)
	final := renderReport(rep, a.key, cached)
	emit(streamEvent{Event: "report", Report: &final})
}

// exploreStream is the streamed handler's exploration entry point,
// swappable by tests to inject a mid-run failure.
var exploreStream = explore.ExploreSession

// runExploreStream runs the exploration and converts a panic into an
// error the streamed handler can deliver as a terminal typed event.
func runExploreStream(sess *interp.Session, opts explore.Options) (rep *explore.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exploration failed: %v", r)
		}
	}()
	return exploreStream(sess, opts), nil
}

// noteExplore folds one exploration into the throughput counters.
func (s *Server) noteExplore(rep *explore.Report, start time.Time) {
	s.schedTotal.Add(int64(rep.Schedules))
	s.schedNanos.Add(int64(time.Since(start)))
}

func renderReport(rep *explore.Report, key string, cached bool) reportJSON {
	out := reportJSON{
		Key:         key,
		Cached:      cached,
		Strategy:    rep.Strategy.String(),
		Schedules:   rep.Schedules,
		Exhausted:   rep.Exhausted,
		SleepSkips:  rep.SleepSkips,
		Diverged:    rep.Diverged,
		Verdicts:    []verdictJSON{},
		Canceled:    rep.Canceled,
		Quarantined: rep.Quarantined,
	}
	for _, v := range rep.Verdicts {
		out.Verdicts = append(out.Verdicts, verdictJSON{
			Outcome:  v.Outcome.String(),
			Count:    v.Count,
			First:    v.First,
			Error:    v.Sample,
			Schedule: v.Schedule,
		})
	}
	if f := rep.FirstFailure; f != nil {
		out.FirstFailure = &failureJSON{
			Outcome:  f.Outcome.String(),
			Error:    f.Err,
			Schedule: f.Schedule,
			Index:    f.Index,
		}
	}
	return out
}
