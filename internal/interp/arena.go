// Environment arenas: the per-thread free-lists that take scope and
// cell allocation off the interpreter's per-statement path.
//
// Every executed block used to allocate a fresh map-backed environment,
// and every declaration a fresh cell — the dominant allocation source of
// a run, and under schedule exploration the same program is run
// thousands of times. Instead, each simulated thread owns an arena of
// reusable env frames and cells, drawn from a process-wide sync.Pool so
// the frames survive across runs of one exploration session.
//
// Recycling discipline (the part that keeps this correct under the
// abort paths): a frame is returned to its arena only when its block
// exits cleanly (err == nil). Clean exits are join-synchronized — a
// parallel region's shared outer scopes cannot be exited by their owner
// before every team thread passed the region's join barrier — whereas
// after an abort the owner unwinds first and the team workers it forked
// unwind later, still reading the scopes the owner just left. Erroring
// frames are simply leaked to the GC, exactly as every frame was before
// pooling; the run is over anyway.
package interp

import "sync"

// env is one lexical scope. Scopes are small (a handful of names), so
// they are plain parallel slices scanned linearly — cheaper than a map
// at this size and trivially reusable. Later declarations shadow
// earlier ones (reverse scan), preserving the map semantics where a
// redeclaration replaced the binding.
type env struct {
	parent *env
	names  []string
	cells  []*cell
}

func (e *env) lookup(name string) *cell {
	for sc := e; sc != nil; sc = sc.parent {
		for i := len(sc.names) - 1; i >= 0; i-- {
			if sc.names[i] == name {
				return sc.cells[i]
			}
		}
	}
	return nil
}

// arena is one thread's private free-list of env frames and cells, plus
// the append-only scratch stack for call-argument values. It is only
// ever touched by its owning thread; cross-run reuse goes through
// arenaPool, which provides the synchronization.
type arena struct {
	envs  []*env
	cells []*cell
	// ctxs recycles team-member execution contexts (one fork per
	// parallel region per member).
	ctxs []*thctx
	// vals is the call-argument scratch stack: evalCall appends the
	// evaluated arguments and truncates back after the call returns
	// (callFunction copies them into parameter cells, so nothing
	// retains the slice).
	vals []value
}

// newThctx takes a recycled team-member context from the arena.
func (a *arena) newThctx() *thctx {
	if n := len(a.ctxs); n > 0 {
		t := a.ctxs[n-1]
		a.ctxs = a.ctxs[:n-1]
		return t
	}
	return new(thctx)
}

// putThctx returns a context whose region body exited cleanly.
func (a *arena) putThctx(t *thctx) {
	*t = thctx{}
	a.ctxs = append(a.ctxs, t)
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

func getArena() *arena { return arenaPool.Get().(*arena) }

// putArena returns a thread's arena to the shared pool. Call only on
// clean completion; an aborted thread's arena may be reachable from
// frames that team workers still unwinding the abort see.
func putArena(a *arena) {
	// Drop array references parked in the value scratch so the pool
	// does not pin program data.
	for i := range a.vals {
		a.vals[i] = value{}
	}
	a.vals = a.vals[:0]
	arenaPool.Put(a)
}

// newEnv takes a frame from the thread's arena (or allocates one) and
// chains it under parent.
func (c *thctx) newEnv(parent *env) *env {
	a := c.ar
	if n := len(a.envs); n > 0 {
		e := a.envs[n-1]
		a.envs = a.envs[:n-1]
		e.parent = parent
		return e
	}
	return &env{parent: parent}
}

// releaseEnv returns a cleanly-exited frame and its cells to the arena.
// The caller guarantees nothing holds the frame or its cells anymore —
// true exactly when the frame's block finished without an error (see
// the package comment above).
func (c *thctx) releaseEnv(e *env) {
	a := c.ar
	for i, cl := range e.cells {
		cl.v = value{} // drop array payloads; the pool must not pin them
		a.cells = append(a.cells, cl)
		e.cells[i] = nil
	}
	e.cells = e.cells[:0]
	for i := range e.names {
		e.names[i] = ""
	}
	e.names = e.names[:0]
	e.parent = nil
	a.envs = append(a.envs, e)
}

// declare binds name to a fresh (recycled) cell holding v. Traced runs
// stamp the cell with its schedule-ordered allocation id, the identity
// trace tags use in place of the (arena-dependent) machine address.
func (c *thctx) declare(e *env, name string, v value) {
	a := c.ar
	var cl *cell
	if n := len(a.cells); n > 0 {
		cl = a.cells[n-1]
		a.cells = a.cells[:n-1]
		cl.v = v
	} else {
		cl = &cell{v: v}
	}
	if c.trace {
		cl.id = c.r.tr.nextAlloc()
	}
	e.names = append(e.names, name)
	e.cells = append(e.cells, cl)
}
