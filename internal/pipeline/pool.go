// Package pipeline provides the bounded worker pool that the
// coarse-grained parallelism of the repository runs on: CompileBatch's
// files, schedule exploration's runs and a campaign's jobs. Map fans a
// batch's indices out to the caller and borrowed helpers, one shared
// counter handing out the next index. A single compile runs serially
// and does not use it.
//
// The package is deliberately domain-free: it knows nothing about MPI or
// MiniHybrid.
package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool. Map fans a batch of independent work
// items across the pool; the calling goroutine always participates in
// the work, so a Map makes progress even when no helper is free.
type Pool struct {
	workers int
	// sem bounds the number of borrowed helper goroutines across all
	// concurrent Map calls (callers run for free on their own goroutine).
	sem chan struct{}
}

// NewPool returns a pool of the given width. Zero or negative means
// runtime.GOMAXPROCS(0); one means fully serial (Map runs inline).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.sem = make(chan struct{}, workers-1)
	}
	return p
}

// Workers returns the configured pool width.
func (p *Pool) Workers() int { return p.workers }

// Serial reports whether the pool runs everything inline.
func (p *Pool) Serial() bool { return p.workers <= 1 }

// Map runs fn(0) … fn(n-1) across the pool and returns when all calls
// have finished. The caller's goroutine works too; helper goroutines are
// recruited only while free slots exist, so total concurrency stays
// bounded near the pool width across concurrent Map calls.
//
// A panic in any item is captured and re-raised on the caller's
// goroutine once the batch has drained, so Map panics the same way
// regardless of which worker hit it — a recover() around a Map behaves
// exactly like one around a serial loop.
func (p *Pool) Map(n int, fn func(i int)) {
	switch {
	case n <= 0:
		return
	case n == 1 || p.Serial():
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var panicOnce sync.Once
	var panicked any
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
			}
		}()
		for {
			i := int(atomic.AddInt64(&next, 1))
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
recruit:
	for h := 0; h < p.workers-1 && h < n-1; h++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-p.sem; wg.Done() }()
				work()
			}()
		default:
			break recruit // pool exhausted; caller still progresses
		}
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// MapCtx is Map with cooperative cancellation: once ctx is done, items
// not yet started are skipped (items already running finish — the
// per-run abort is the session's job, not the pool's). Returns ctx.Err()
// when the batch was cut short, nil when every item ran. Callers that
// need to distinguish skipped items must mark completion themselves;
// the pool does not report which indices ran.
//
// Panic semantics are Map's: a panicking item is re-raised on the
// caller after the drain. Quarantine, where wanted, wraps fn.
func (p *Pool) MapCtx(ctx context.Context, n int, fn func(i int)) error {
	if ctx == nil || ctx.Done() == nil {
		p.Map(n, fn)
		return nil
	}
	done := ctx.Done()
	p.Map(n, func(i int) {
		select {
		case <-done:
		default:
			fn(i)
		}
	})
	return ctx.Err()
}
