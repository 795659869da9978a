package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/runctl"
)

// waitGoroutines polls until the goroutine count drops to the target
// or the deadline expires, returning the final count.
func waitGoroutines(target int, deadline time.Duration) int {
	end := time.Now().Add(deadline)
	n := runtime.NumGoroutine()
	for n > target && time.Now().Before(end) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestPrefetchJoinedOnCancel is the goroutine-lifetime regression test
// for the prefetch pipeline: a run stopped by cancellation must leave
// no goroutine behind.
func TestPrefetchJoinedOnCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	g := circuits.ArrayMult(5)
	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	res := RunCtx(ctx, g, errmetric.ER, 0.4, Options{
		NumPatterns: 2048,
		Workers:     4,
		Params:      Params{Seed: 1},
		Progress: func(RoundStats) {
			rounds++
			if rounds == 3 {
				cancel()
			}
		},
	})
	if res.StopReason != runctl.Cancelled {
		t.Fatalf("stop reason %v, want Cancelled", res.StopReason)
	}
	if n := waitGoroutines(base, 2*time.Second); n > base {
		t.Fatalf("%d goroutines alive after cancelled run, started with %d (prefetch leak)", n, base)
	}
}

// TestPrefetchJoinedOnPanic: a Progress callback that panics unwinds
// RunWithComparatorCtx past the round loop (the public API recovers
// via runctl.Guard); the in-flight prefetched simulation must still be
// joined during the unwind, not leaked with the graph it pins.
func TestPrefetchJoinedOnPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	g := circuits.ArrayMult(5)
	rounds := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected the Progress panic to propagate")
			}
		}()
		Run(g, errmetric.ER, 0.4, Options{
			NumPatterns: 2048,
			Workers:     4,
			Params:      Params{Seed: 1},
			Progress: func(RoundStats) {
				rounds++
				if rounds == 2 {
					panic("boom")
				}
			},
		})
	}()
	if rounds != 2 {
		t.Fatalf("panicked after %d rounds, want 2", rounds)
	}
	if n := waitGoroutines(base, 2*time.Second); n > base {
		t.Fatalf("%d goroutines alive after panicking run, started with %d (prefetch leak)", n, base)
	}
}
