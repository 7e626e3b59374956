// Artifact cache: the content-addressed heart of the daemon.
//
// Every compile request is named by parcoach.CacheKey — SHA-256 of the
// source bytes plus the canonicalized compile options — and resolves to one
// cached artifact holding the compiled *parcoach.Program, its
// diagnostics, and the warm interp.Session pool for that artifact.
// Concurrent identical submissions are deduplicated singleflight-style:
// the first requester compiles, everyone else parks on the artifact's
// ready channel and serves the same result, so a thundering herd of
// identical sources costs exactly one compilation. A compile its
// requester canceled is shared with no one: the parked requests retry.
package serve

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"parcoach"
	"parcoach/internal/interp"
)

// artifact is one cache entry: the compiled program (or its compile
// error — failures are cached too, so a hostile client re-submitting a
// broken source cannot force recompiles), and the warm session pool.
type artifact struct {
	key  string
	name string
	// ready closes when the compile finishes; prog/err are immutable
	// afterwards. Followers of the singleflight wait here.
	ready chan struct{}
	prog  *parcoach.Program
	err   error
	// lastUsed orders LRU eviction (unix nanos).
	lastUsed atomic.Int64

	// sessions maps a request's run block to the warm session serving
	// it. interp.Session is safe for concurrent use, so one session per
	// run block is all the pooling needed: its internal pools recycle
	// run state across every request that shares it.
	mu       sync.Mutex
	sessions map[runSpec]*interp.Session
}

func (a *artifact) touch() { a.lastUsed.Store(time.Now().UnixNano()) }

// canceled reports, once ready is closed, whether the leader's context
// cut the compile short (CompileCtx then returns the context's error).
func (a *artifact) canceled() bool {
	return errors.Is(a.err, context.Canceled) || errors.Is(a.err, context.DeadlineExceeded)
}

// maxWarmSessions caps one artifact's warm sessions. A client varying
// its run block from request to request (a new maxSteps each time)
// would otherwise grow them without bound for as long as the artifact
// stays cached.
const maxWarmSessions = 16

// session returns the warm session for the run block rs, building it
// from opts, the parsed rs, on first use. Past maxWarmSessions the new
// session serves this request only and is not kept.
func (a *artifact) session(rs runSpec, opts interp.Options) *interp.Session {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s, ok := a.sessions[rs]; ok {
		return s
	}
	s := a.prog.NewSession(opts, rs.Uninstrumented)
	if len(a.sessions) < maxWarmSessions {
		if a.sessions == nil {
			a.sessions = make(map[runSpec]*interp.Session)
		}
		a.sessions[rs] = s
	}
	return s
}

// warmSessions reports this artifact's warm-session count.
func (a *artifact) warmSessions() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.sessions)
}

// artifactFor resolves (name, source, opts) to its cached artifact,
// compiling at most once per key no matter how many requests race. The
// bool reports whether the result was served from cache (false exactly
// for the one request that compiled). Waits are bounded by ctx.
func (s *Server) artifactFor(ctx context.Context, name, source string, opts parcoach.Options) (*artifact, bool, error) {
	key := parcoach.CacheKey(name, source, opts)
	s.mu.Lock()
	for a, ok := s.cache[key]; ok; a, ok = s.cache[key] {
		s.mu.Unlock()
		select {
		case <-a.ready:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if !a.canceled() {
			a.touch()
			s.hits.Add(1)
			return a, true, nil
		}
		s.mu.Lock()
	}
	a := &artifact{key: key, name: name, ready: make(chan struct{})}
	a.touch()
	s.cache[key] = a
	s.evictLocked()
	s.mu.Unlock()
	s.misses.Add(1)
	// Compile serially on the requesting goroutine — it holds a
	// concurrency slot already, so MaxConcurrent is the only parallelism
	// knob. A panic inside the compile is quarantined into a cached error
	// (the source deterministically breaks this compiler — recompiling it
	// for the next client would panic again); a context cancellation is
	// NOT cached: the entry is evicted so the next client gets a real
	// compile, and the followers parked on it join the next leader or
	// become it.
	func() {
		defer func() {
			if r := recover(); r != nil {
				a.prog, a.err = nil, interp.NewQuarantineError("serve.compile", r, debug.Stack())
			}
		}()
		a.prog, a.err = parcoach.CompileCtx(ctx, name, source, opts)
	}()
	if a.canceled() {
		s.mu.Lock()
		if s.cache[key] == a {
			delete(s.cache, key)
		}
		s.mu.Unlock()
	}
	close(a.ready)
	return a, false, nil
}

// lookup resolves a key the client obtained from a previous /compile;
// nil when the key is unknown or was evicted (a canceled compile is).
func (s *Server) lookup(ctx context.Context, key string) (*artifact, error) {
	s.mu.Lock()
	a := s.cache[key]
	s.mu.Unlock()
	if a == nil {
		return nil, nil
	}
	select {
	case <-a.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if a.canceled() {
		return nil, nil
	}
	a.touch()
	s.hits.Add(1)
	return a, nil
}

// evictLocked drops least-recently-used artifacts beyond the cache cap.
// Entries still compiling (ready open) are never evicted — the
// singleflight followers hold their pointer anyway.
func (s *Server) evictLocked() {
	for len(s.cache) > s.cfg.CacheCap {
		var oldest *artifact
		for _, a := range s.cache {
			select {
			case <-a.ready:
			default:
				continue // in flight
			}
			if oldest == nil || a.lastUsed.Load() < oldest.lastUsed.Load() {
				oldest = a
			}
		}
		if oldest == nil {
			return // everything in flight; over-cap transiently
		}
		delete(s.cache, oldest.key)
		s.evicted.Add(1)
	}
}
