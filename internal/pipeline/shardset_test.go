package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardedSetTryAdd: exactly one concurrent claimant wins each key,
// and the final cardinality is exact.
func TestShardedSetTryAdd(t *testing.T) {
	s := NewShardedSet()
	const keys = 1000
	const claimants = 8
	wins := make([]int64, keys)
	var wg sync.WaitGroup
	for c := 0; c < claimants; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				// Spread keys over the whole 64-bit space so every shard
				// participates.
				key := uint64(k) * 0x9e3779b97f4a7c15
				if s.TryAdd(key) {
					atomic.AddInt64(&wins[k], 1)
				}
			}
		}()
	}
	wg.Wait()
	for k, w := range wins {
		if w != 1 {
			t.Fatalf("key %d claimed %d times, want exactly 1", k, w)
		}
	}
	if got := s.Len(); got != keys {
		t.Fatalf("Len() = %d, want %d", got, keys)
	}
	if s.TryAdd(0x9e3779b97f4a7c15) {
		t.Fatal("re-adding an existing key reported absent")
	}
}
