// Frame arenas: the per-thread free-lists that take frame allocation off
// the interpreter's per-call path.
//
// Every function activation and every team member's region body runs in
// a slot frame (see resolve.go), and under schedule exploration the same
// program is run thousands of times. Instead of allocating a frame per
// call, each simulated thread owns an arena of reusable frames, drawn
// from a process-wide sync.Pool so the frames survive across runs of one
// exploration session.
//
// Recycling discipline (the part that keeps this correct under the
// abort paths): a frame is returned to its arena only when its function
// or region body exits cleanly (err == nil). Clean exits are
// join-synchronized — a parallel region's forker cannot leave the frame
// its team shares before every team thread passed the region's join
// barrier — whereas after an abort the owner unwinds first and the team
// workers it forked unwind later, still reading the frame the owner
// just left. Erroring frames are simply leaked to the GC; the run is
// over anyway.
package interp

import "sync"

// arena is one thread's private free-list of frames and team-member
// contexts. It is only ever touched by its owning thread; cross-run
// reuse goes through arenaPool, which provides the synchronization.
type arena struct {
	frames []*frame
	// ctxs recycles team-member execution contexts (one fork per
	// parallel region per member).
	ctxs []*thctx
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
func putArena(a *arena) { arenaPool.Put(a) }

// newFrame takes a frame of n zeroed slots from the thread's arena (or
// allocates one) and chains it under up.
func (c *thctx) newFrame(up *frame, n int) *frame {
	a := c.ar
	var f *frame
	if k := len(a.frames); k > 0 {
		f = a.frames[k-1]
		a.frames = a.frames[:k-1]
	} else {
		f = new(frame)
	}
	f.up = up
	if cap(f.cells) < n {
		f.cells = make([]cell, n)
	} else {
		f.cells = f.cells[:n]
	}
	return f
}

// releaseFrame returns a cleanly-exited frame to the arena, zeroing its
// slots so the pool pins no array. The caller guarantees nothing holds
// the frame anymore — true exactly when its function or region body
// finished without an error (see the package comment above).
func (c *thctx) releaseFrame(f *frame) {
	clear(f.cells)
	f.up = nil
	c.ar.frames = append(c.ar.frames, f)
}
