// Package sweep is the bounded worker-pool executor behind the experiment
// harness: it runs independent experiment cells (one strategy run, one
// sweep size, one ablation arm) concurrently while keeping results
// bit-identical to a sequential run.
//
// Determinism contract: every cell owns its inputs (its RNG seed is derived
// from the master seed by the caller, never from cell scheduling), writes
// its result to a caller-chosen slot, and errors are reported by the lowest
// cell index. Cell scheduling therefore never influences outputs — `-jobs 1`
// and `-jobs N` produce byte-identical results for a fixed seed.
//
// The package also owns the process-wide nested-parallelism budget: outer
// sweep cells, the inner GA fitness evaluators and the tDSE candidate
// evaluation all draw CPU tokens from one GOMAXPROCS-sized pool
// (AcquireWorkers/ReleaseWorkers), so nesting a parallel evaluator under a
// parallel sweep divides the machine instead of oversubscribing it.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Jobs normalizes a job count: values ≤ 0 select GOMAXPROCS.
func Jobs(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes the tasks on at most jobs concurrent workers (jobs ≤ 0:
// GOMAXPROCS) and returns the error of the lowest-indexed failing task, so
// the reported error does not depend on scheduling. With jobs == 1 the
// tasks run inline on the calling goroutine in order.
//
// Once any task has failed, not-yet-started tasks are no longer dispatched:
// results past the lowest failing index are discarded anyway, so running
// them would only burn CPU. In-flight tasks still run to completion.
// Because tasks are dispatched in index order, every task below a recorded
// failure has already been dispatched, so the lowest-indexed failure is
// found regardless of the early stop — the returned error stays identical
// for every jobs value.
func Run(jobs int, tasks []func() error) error {
	return RunCtx(nil, jobs, tasks)
}

// RunCtx is Run with cooperative cancellation: once ctx is done, tasks that
// have not yet been dispatched are skipped and their slots are charged with
// ctx.Err(). The lowest-index-error rule is unchanged — a real task failure
// at a lower index than the first skipped task still wins — so for a ctx
// that never fires, RunCtx is exactly Run. In-flight tasks are not
// interrupted; they observe ctx themselves if they want to stop early.
// A nil ctx never cancels.
func RunCtx(ctx context.Context, jobs int, tasks []func() error) error {
	cancelled := func() bool { return ctx != nil && ctx.Err() != nil }
	jobs = Jobs(jobs)
	if jobs > len(tasks) {
		jobs = len(tasks)
	}
	if jobs <= 1 {
		for _, t := range tasks {
			if cancelled() {
				return ctx.Err()
			}
			if err := t(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if cancelled() {
					errs[i] = ctx.Err()
					failed.Store(true)
					return
				}
				if err := tasks[i](); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over every item on at most jobs workers and returns the
// results in item order. On error the lowest-indexed failure is returned
// and the results are discarded.
func Map[T, R any](jobs int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	tasks := make([]func() error, len(items))
	for i := range items {
		i := i
		tasks[i] = func() error {
			r, err := fn(i, items[i])
			if err != nil {
				return err
			}
			out[i] = r
			return nil
		}
	}
	if err := Run(jobs, tasks); err != nil {
		return nil, err
	}
	return out, nil
}

// ---- nested-parallelism budget ----

var (
	tokensOnce sync.Once
	tokens     chan struct{}
)

func pool() chan struct{} {
	tokensOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		tokens = make(chan struct{}, n)
		for i := 0; i < n; i++ {
			tokens <- struct{}{}
		}
	})
	return tokens
}

// AcquireWorkers claims CPU tokens for a nested evaluator: it blocks until
// one token is free, then opportunistically takes up to want−1 more without
// blocking, and returns the claimed count (≥ 1). Because a holder never
// needs further tokens to finish, the pool cannot deadlock. Callers must
// pass the returned count to ReleaseWorkers.
func AcquireWorkers(want int) int {
	if want < 1 {
		want = 1
	}
	p := pool()
	<-p
	n := 1
	for n < want {
		select {
		case <-p:
			n++
		default:
			return n
		}
	}
	return n
}

// ReleaseWorkers returns tokens claimed by AcquireWorkers to the pool.
func ReleaseWorkers(n int) {
	p := pool()
	for i := 0; i < n; i++ {
		p <- struct{}{}
	}
}

// FreeList is a mutex-guarded stack of reusable scratch values for code
// that runs on parallel evaluators. Unlike a sync.Pool it keeps its values
// across garbage collections and hands a free value to whichever goroutine
// asks, so the number of values ever built depends only on how many were
// in use at once, not on goroutine scheduling, and allocs/op stay
// comparable between benchmark runs. It holds at most that peak number of
// values. New builds a value when none is free.
type FreeList[T any] struct {
	New  func() T
	mu   sync.Mutex
	free []T
}

// Get returns a free value, or a new one.
func (l *FreeList[T]) Get() T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	return l.New()
}

// Put returns v to the list for reuse.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
