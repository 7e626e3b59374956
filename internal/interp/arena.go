// Frame recycling: the free lists that take frame allocation off the
// interpreter's per-call path.
//
// Every function activation and every team member's region body runs in
// a slot frame (see resolve.go), and under schedule exploration the same
// program is run thousands of times. Instead of allocating a frame per
// call, the run environment (runner, session.go) keeps one free list of
// frames and one of thread contexts, which last as long as the
// environment. Every thread of a run takes from and returns to the same
// lists: only one thread runs at a time, so they need no lock.
//
// Recycling discipline (the part that keeps this correct under the
// abort paths): a frame goes back only when its function or region body
// exits cleanly (err == nil), and a thread context only when its thread
// or region body does. Clean exits are join-synchronized — a parallel
// region's forker cannot leave the frame its team shares before every
// team thread passed the region's join barrier — whereas after an abort
// the owner unwinds first and the team workers it forked unwind later,
// still reading the frame and context the owner just left. Those are
// simply left to the GC; the run is over anyway.
package interp

// newThctx takes a zeroed thread context from the free list (or
// allocates one).
func (r *runner) newThctx() *thctx {
	if n := len(r.ctxs); n > 0 {
		t := r.ctxs[n-1]
		r.ctxs = r.ctxs[:n-1]
		return t
	}
	return new(thctx)
}

// putThctx returns a context whose thread or region body exited
// cleanly.
func (r *runner) putThctx(t *thctx) {
	*t = thctx{}
	r.ctxs = append(r.ctxs, t)
}

// newFrame takes a frame of n zeroed slots from the free list (or
// allocates one) and chains it under up.
func (c *thctx) newFrame(up *frame, n int) *frame {
	r := c.r
	var f *frame
	if k := len(r.frames); k > 0 {
		f = r.frames[k-1]
		r.frames = r.frames[:k-1]
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

// releaseFrame returns a cleanly-exited frame to the free list, zeroing
// its slots so the list pins no array. The caller guarantees nothing
// holds the frame anymore — true exactly when its function or region
// body finished without an error (see the file comment above).
func (c *thctx) releaseFrame(f *frame) {
	clear(f.cells)
	f.up = nil
	c.r.frames = append(c.r.frames, f)
}
