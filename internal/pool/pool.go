// Package pool provides the bounded worker pool the synthesis pipeline
// uses to run independent work inside one compile — the scheduler's
// precomputation passes and the DA router's per-move path batches —
// without unbounded goroutine fan-out. Both callers use it only when
// their Workers option exceeds 1 and stay inline otherwise; auto-grow
// size attempts always run one after another.
//
// A Pool is a concurrency limit, not a set of persistent goroutines:
// Do spawns at most Workers goroutines for the duration of one call and
// always waits for them before returning, so callers never leak work
// past their own stack frame (which is what makes the compile-level
// cancellation guarantee testable with a goroutine-count check).
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the concurrency of independent task batches.
type Pool struct {
	workers int
}

// New returns a pool running at most workers tasks concurrently.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the concurrency bound.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return 1
	}
	return p.workers
}

// Do runs fn(0)..fn(n-1) with at most Workers tasks in flight and
// returns the error of the lowest index that failed (nil when all
// succeed) — the same error a sequential loop stopping at the first
// failure would return, which keeps parallel stages byte-compatible
// with their sequential twins. Once the context is done or any task
// has failed, unstarted tasks are skipped; tasks already running are
// always waited for, so no goroutine outlives the call.
//
// A nil pool, a single-worker pool, or n <= 1 runs everything inline
// on the calling goroutine with zero goroutine overhead.
func (p *Pool) Do(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstIdx < 0 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						return
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
