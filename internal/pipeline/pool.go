// Package pipeline fans the coarse-grained parallelism of the
// repository out to a bounded number of goroutines: CompileBatch's
// files, schedule exploration's runs and a campaign's jobs. Map hands a
// batch's indices to the caller and at most workers-1 helpers, one
// shared counter handing out the next index. A single compile runs
// serially and does not use it.
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

// Map runs fn(0) … fn(n-1) on at most workers goroutines and returns
// when all calls have finished. Zero or negative workers means
// runtime.GOMAXPROCS(0); one means fully serial (Map runs inline, in
// index order). The caller's goroutine works too, beside at most
// workers-1 helpers.
//
// A panic in any item is captured and re-raised on the caller's
// goroutine once the batch has drained, so Map panics the same way
// regardless of which worker hit it — a recover() around a Map behaves
// exactly like one around a serial loop.
func Map(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n <= 0 {
		return
	}
	if n == 1 || workers == 1 {
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
	for h := 0; h < workers-1 && h < n-1; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// MapCtx is Map with cooperative cancellation: once ctx is done, items
// not yet started are skipped (items already running finish — the
// per-run abort is the session's job, not Map's). Returns ctx.Err()
// when the batch was cut short, nil when every item ran. Callers that
// need to distinguish skipped items must mark completion themselves;
// MapCtx does not report which indices ran.
//
// Panic semantics are Map's: a panicking item is re-raised on the
// caller after the drain. Quarantine, where wanted, wraps fn.
func MapCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if ctx == nil || ctx.Done() == nil {
		Map(workers, n, fn)
		return nil
	}
	done := ctx.Done()
	Map(workers, n, func(i int) {
		select {
		case <-done:
		default:
			fn(i)
		}
	})
	return ctx.Err()
}
