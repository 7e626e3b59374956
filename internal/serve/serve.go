// Package serve implements the PARCOACH validation daemon: the
// HTTP+JSON service cmd/parcoachd mounts. One long-lived process keeps
// compiled artifacts (content-addressed, singleflight-deduplicated) and
// warm interpreter sessions in memory, so validating a program costs a
// hash lookup plus the runs themselves instead of a full pipeline
// compile per request.
//
// Endpoints:
//
//	POST /compile  — compile (or hit the cache); returns the artifact
//	                 key and the verification diagnostics
//	POST /run      — one run of a cached or inline program, optionally
//	                 under a replay token
//	POST /explore  — schedule exploration; "stream":true switches the
//	                 response to NDJSON progress events (verdict deltas,
//	                 first-failure replay token, heartbeats, final report)
//	GET  /healthz  — liveness
//	GET  /stats    — cache hit rate, queue depths, warm sessions,
//	                 schedules/sec
//
// Load shedding is explicit: at most Config.MaxConcurrent requests
// execute at once, at most Config.QueueDepth more wait; beyond that the
// daemon answers 429 with a Retry-After header instead of letting
// latency grow without bound.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parcoach/internal/chaos"
	"parcoach/internal/interp"
)

// Config sizes the daemon. Each request, a compile included, runs on
// its own goroutine, so MaxConcurrent is the daemon's only parallelism
// knob.
type Config struct {
	// CacheCap bounds the artifact cache (LRU beyond it; default 128).
	CacheCap int
	// MaxConcurrent bounds requests executing at once (default
	// max(2, NumCPU)).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a slot; arrivals beyond it
	// are rejected with 429 (default 64).
	QueueDepth int
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxSourceBytes bounds request bodies (default 4 MiB).
	MaxSourceBytes int64
	// RunTimeout arms the per-run wall-clock watchdog on every warm
	// session (interp.Options.WallTimeout): a run still going after
	// this long is aborted and answers with outcome "timeout" instead of
	// holding a request slot until the client gives up. Zero disables.
	RunTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.CacheCap <= 0 {
		c.CacheCap = 128
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.NumCPU()
		if c.MaxConcurrent < 2 {
			c.MaxConcurrent = 2
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 4 << 20
	}
	return c
}

// Server is the daemon state: the artifact cache and the admission
// machinery. Mount it as an http.Handler.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// slots is the concurrency semaphore; queued counts waiters,
	// rejected counts 429s.
	slots    chan struct{}
	queued   atomic.Int64
	rejected atomic.Int64

	mu    sync.Mutex
	cache map[string]*artifact

	requests atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
	evicted  atomic.Int64

	// Exploration throughput: schedules run and wall nanoseconds spent
	// inside explorations, for the /stats schedules-per-second figure.
	schedTotal atomic.Int64
	schedNanos atomic.Int64

	// Robustness counters: requests whose handler panicked (quarantined
	// at the middleware, answered 500) and requests whose client
	// disconnected mid-flight (context canceled).
	panicked atomic.Int64
	canceled atomic.Int64
}

// New builds a server; zero Config fields take the documented defaults.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		start: time.Now(),
		slots: make(chan struct{}, cfg.MaxConcurrent),
		cache: make(map[string]*artifact),
	}
	s.mux.HandleFunc("POST /compile", s.guarded(s.handleCompile))
	s.mux.HandleFunc("POST /run", s.guarded(s.handleRun))
	s.mux.HandleFunc("POST /explore", s.guarded(s.handleExplore))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errBusy marks admission failure: queue full, shed the request.
var errBusy = errors.New("serve: at capacity")

// acquire admits the request: take a slot immediately, or wait in the
// bounded queue. errBusy means 429; a context error means the client
// gave up while queued.
func (s *Server) acquire(r *http.Request) (release func(), err error) {
	release = func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		return release, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.rejected.Add(1)
		return nil, errBusy
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return release, nil
	case <-r.Context().Done():
		return nil, r.Context().Err()
	}
}

// guarded wraps a handler with admission control, the body bound, panic
// quarantine (a panicking handler answers 500 and the daemon lives on —
// the slot is released, the caches stay consistent), and disconnect
// accounting.
func (s *Server) guarded(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		release, err := s.acquire(r)
		if err == errBusy {
			w.Header().Set("Retry-After",
				strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			writeError(w, http.StatusTooManyRequests, "server at capacity, retry later")
			return
		}
		if err != nil {
			s.canceled.Add(1)
			return // client went away while queued; nothing to answer
		}
		defer release()
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec) // the sentinel means "hang up", not "bug"
				}
				s.panicked.Add(1)
				// If the handler already committed the response this write
				// is a no-op; a truncated body is the best a committed
				// stream can do (streamed explore emits its own terminal
				// error event before this point).
				writeError(w, http.StatusInternalServerError,
					"internal error: %v", interp.NewQuarantineError("serve.request", rec, debug.Stack()))
			}
		}()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
		chaos.Here("serve.request")
		h(w, r)
		if r.Context().Err() != nil {
			s.canceled.Add(1)
		}
	}
}

// writeError answers with the uniform JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON answers 200 with v.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeInto parses the request body, rejecting unknown fields so a
// typo'd option fails loudly instead of silently running defaults.
func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true})
}

// Stats is the /stats payload.
type Stats struct {
	UptimeSec float64 `json:"uptimeSec"`
	Requests  int64   `json:"requests"`
	Cache     struct {
		Entries int     `json:"entries"`
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hitRate"`
		Evicted int64   `json:"evicted"`
	} `json:"cache"`
	Queue struct {
		Slots    int   `json:"slots"`
		Inflight int   `json:"inflight"`
		Queued   int64 `json:"queued"`
		Rejected int64 `json:"rejected"`
	} `json:"queue"`
	Sessions struct {
		Warm int `json:"warm"`
	} `json:"sessions"`
	Explore struct {
		Schedules       int64   `json:"schedules"`
		SchedulesPerSec float64 `json:"schedulesPerSec"`
	} `json:"explore"`
	Robust struct {
		// CanceledRequests counts requests whose client disconnected
		// (while queued or mid-handler); QuarantinedPanics counts handler
		// panics caught by the middleware (each answered 500).
		CanceledRequests  int64 `json:"canceledRequests"`
		QuarantinedPanics int64 `json:"quarantinedPanics"`
		// CanceledRuns / WatchdogRuns are the interpreter's process-wide
		// counts of runs stopped by context cancellation and by the
		// per-run wall-clock watchdog (Config.RunTimeout).
		CanceledRuns int64 `json:"canceledRuns"`
		WatchdogRuns int64 `json:"watchdogRuns"`
	} `json:"robust"`
}

// Snapshot returns the current server statistics (the /stats payload).
func (s *Server) Snapshot() Stats {
	var st Stats
	st.UptimeSec = time.Since(s.start).Seconds()
	st.Requests = s.requests.Load()
	st.Cache.Hits = s.hits.Load()
	st.Cache.Misses = s.misses.Load()
	if total := st.Cache.Hits + st.Cache.Misses; total > 0 {
		st.Cache.HitRate = float64(st.Cache.Hits) / float64(total)
	}
	st.Cache.Evicted = s.evicted.Load()
	s.mu.Lock()
	st.Cache.Entries = len(s.cache)
	for _, a := range s.cache {
		st.Sessions.Warm += a.warmSessions()
	}
	s.mu.Unlock()
	st.Queue.Slots = s.cfg.MaxConcurrent
	st.Queue.Inflight = len(s.slots)
	st.Queue.Queued = s.queued.Load()
	st.Queue.Rejected = s.rejected.Load()
	st.Robust.CanceledRequests = s.canceled.Load()
	st.Robust.QuarantinedPanics = s.panicked.Load()
	st.Robust.CanceledRuns = interp.CanceledRuns()
	st.Robust.WatchdogRuns = interp.WatchdogRuns()
	st.Explore.Schedules = s.schedTotal.Load()
	if ns := s.schedNanos.Load(); ns > 0 {
		st.Explore.SchedulesPerSec = float64(st.Explore.Schedules) / (float64(ns) / 1e9)
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Snapshot())
}
