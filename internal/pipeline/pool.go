// Package pipeline provides the concurrent pass-manager machinery the
// compile path runs on: a bounded worker pool sized to the machine (Map
// fans a batch's indices out to the caller and borrowed helpers, one
// shared counter handing out the next index), call-graph SCC
// condensation for interprocedural scheduling, and a pass manager in
// which every pass declares the per-function artifacts it produces and
// consumes (folded AST, CFG, dominators, parallelism words, analysis
// summaries, instrumented bodies, IR, allocations).
//
// The package is deliberately domain-free: it knows nothing about MPI or
// MiniHybrid. The concrete passes are registered by package parcoach,
// which closes over internal/core, internal/instrument and
// internal/passes; internal/core uses only the Pool and SCC pieces, so no
// import cycle arises.
package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool shared across compilations. Map fans a
// batch of independent work items across the pool; the calling goroutine
// always participates in the work, so nested Map calls (a batch compile
// whose per-file compiles each fan per-function work out again) can never
// deadlock: at worst a nested call finds no free workers and degrades to
// running inline on its caller.
type Pool struct {
	workers int
	// sem bounds the number of borrowed helper goroutines across all
	// concurrent Map calls (callers run for free on their own goroutine).
	sem chan struct{}
}

// NewPool returns a pool of the given width. Zero or negative means
// runtime.GOMAXPROCS(0); one means fully serial (Map runs inline, which
// is the deterministic reference the batch benchmarks compare against).
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
// bounded near the pool width even under nesting.
//
// A panic in any item is captured and re-raised on the caller's
// goroutine once the batch has drained, so Map panics the same way
// regardless of which worker hit it — a recover() around a pooled
// compile behaves exactly like one around a serial compile.
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
