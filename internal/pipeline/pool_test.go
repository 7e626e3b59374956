package pipeline

import (
	"reflect"
	"sync/atomic"
	"testing"
)

func TestPoolMapRunsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		const n = 1000
		counts := make([]int32, n)
		p.Map(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestPoolDefaultsAndSerial(t *testing.T) {
	if NewPool(0).Workers() <= 0 {
		t.Error("default pool must have positive width")
	}
	if !NewPool(1).Serial() || NewPool(4).Serial() {
		t.Error("Serial() wrong")
	}
	// Serial pool preserves order.
	var order []int
	NewPool(1).Map(5, func(i int) { order = append(order, i) })
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("serial order wrong: %v", order)
	}
}

// Nested Map calls must not deadlock even when the outer fan-out saturates
// the pool: callers always participate in their own batch.
func TestPoolNestedMapNoDeadlock(t *testing.T) {
	p := NewPool(4)
	var total int64
	p.Map(16, func(i int) {
		p.Map(16, func(j int) {
			atomic.AddInt64(&total, 1)
		})
	})
	if total != 16*16 {
		t.Fatalf("nested map ran %d of %d items", total, 16*16)
	}
}

// A panic on a recruited helper must surface on the caller's goroutine —
// recover() around Map works identically for any pool width.
func TestPoolMapPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		var got any
		func() {
			defer func() { got = recover() }()
			p.Map(64, func(i int) {
				if i == 17 {
					panic("boom-17")
				}
			})
		}()
		if got != "boom-17" {
			t.Errorf("workers=%d: recovered %v, want boom-17", workers, got)
		}
	}
}
