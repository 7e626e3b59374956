package sched

import (
	"iter"
	"runtime/debug"
	"sync"
)

// coro is a pooled coroutine that runs one simulated thread at a time.
// It keeps the stack the interpreter's recursive walk grew, so the many
// short threads of an exploration do not regrow it, and it runs only
// while resumed, so handing the run token to another thread costs two
// coroutine switches on the driver's OS thread.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	fn    func()
	// done reports that fn returned and the coroutine idles in its
	// loop; panicked and stack record what fn panicked with, if it did.
	done     bool
	panicked any
	stack    []byte
}

// maxIdleCoros caps the free list: put stops the coroutines a burst of
// live threads left beyond it, so the pool cannot keep a peak's worth of
// parked goroutines for the life of the process.
const maxIdleCoros = 1024

// coroIdle is the process-wide free list of idle coroutines, shared by
// concurrent runs. Reuse is LIFO so the hottest stack goes first.
var coroIdle struct {
	sync.Mutex
	list []*coro
}

// getCoro takes an idle coroutine (or makes one) and arms it with fn;
// fn starts at the first resume.
func getCoro(fn func()) *coro {
	coroIdle.Lock()
	var co *coro
	if n := len(coroIdle.list); n > 0 {
		co = coroIdle.list[n-1]
		coroIdle.list[n-1] = nil
		coroIdle.list = coroIdle.list[:n-1]
	}
	coroIdle.Unlock()
	if co == nil {
		co = new(coro)
		co.next, co.stop = iter.Pull(co.loop)
	}
	co.fn, co.done = fn, false
	return co
}

// put returns a finished coroutine to the free list, or stops it when
// the list is full.
func (co *coro) put() {
	co.fn, co.panicked, co.stack = nil, nil, nil
	coroIdle.Lock()
	keep := len(coroIdle.list) < maxIdleCoros
	if keep {
		coroIdle.list = append(coroIdle.list, co)
	}
	coroIdle.Unlock()
	if !keep {
		co.stop()
	}
}

// resume runs the coroutine until it suspends or fn returns.
func (co *coro) resume() { co.next() }

// suspend hands control back to whoever resumed the coroutine. Only the
// coroutine itself may call it.
func (co *coro) suspend() { co.yield(struct{}{}) }

func (co *coro) loop(yield func(struct{}) bool) {
	co.yield = yield
	for {
		co.run()
		if !co.idle() {
			return
		}
	}
}

// run calls fn, recovering a panic with the stack it was raised on so
// the run, not the process, fails and the coroutine stays poolable.
func (co *coro) run() {
	defer func() {
		if v := recover(); v != nil {
			co.panicked, co.stack = v, debug.Stack()
		}
	}()
	co.fn()
}

// idle suspends a finished coroutine until its next fn; it returns false
// once put stopped the coroutine. Only the idle loop carries this frame:
// internal/leakcheck allows goroutines parked in it and reports every
// other suspended coroutine.
//
//go:noinline
func (co *coro) idle() bool {
	co.done = true
	return co.yield(struct{}{})
}
