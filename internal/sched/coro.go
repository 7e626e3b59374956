package sched

import (
	"iter"
	"runtime/debug"
	"sync"
)

// coro is a pooled coroutine that runs one simulated thread at a time.
// Like pipeline.Spawn's executor goroutines it keeps the stack the
// interpreter's recursive walk grew, so the many short threads of an
// exploration do not regrow it; unlike them it runs only while resumed,
// so handing the run token to another thread costs two coroutine
// switches on the driver's OS thread instead of a channel wake-up.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	fn    func()
	// done reports that fn returned and the coroutine idles in its
	// loop; panicked and stack record what fn panicked with, if it did.
	done     bool
	panicked any
	stack    []byte
}

// coroIdle is the process-wide free list of idle coroutines, shared by
// concurrent runs. It sizes itself to the peak number of simulated
// threads alive at once; reuse is LIFO so the hottest stack goes first.
// Idle coroutines are never stopped, like pipeline.Spawn's workers.
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
		co.next, _ = iter.Pull(co.loop)
	}
	co.fn, co.done = fn, false
	return co
}

// put returns a finished coroutine to the free list.
func (co *coro) put() {
	co.fn, co.panicked, co.stack = nil, nil, nil
	coroIdle.Lock()
	coroIdle.list = append(coroIdle.list, co)
	coroIdle.Unlock()
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

// idle suspends a finished coroutine until its next fn. Only the idle
// loop carries this frame: internal/leakcheck allows goroutines parked
// in it and reports every other suspended coroutine.
//
//go:noinline
func (co *coro) idle() bool {
	co.done = true
	return co.yield(struct{}{})
}
