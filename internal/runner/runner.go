// Package runner fans independent simulation runs across a bounded pool
// of goroutines. The paper's evaluation is a large sweep — six schemes ×
// many seeds × many attack configurations — and every run is independent
// of every other, so the sweep is embarrassingly parallel. The runner
// turns a slice of keyed jobs into a slice of results in job order, which
// makes the output of a sweep a pure function of its inputs: the same
// jobs produce byte-identical tables and CSVs at any worker count.
//
// Concurrency contract: the runner owns the goroutines; each Job.Run
// executes on exactly one of them and must not share mutable state (in
// particular *stats.RNG instances, rack batteries and μDEBs, or
// virus.Attack controllers) with any other job. Per-run randomness is derived with
// DeriveSeed(base, key), never by sharing a stream across runs. Results
// are written to per-job slots, so no synchronization is needed beyond
// the pool's own.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/stats"
)

// Job is one independent unit of work in a sweep.
type Job[T any] struct {
	// Key names the run, e.g. "fig15/PAD/Dense/CPU". Keys identify runs
	// in progress reports and failures, and — via DeriveSeed — pin the
	// run's randomness, so any single run of a sweep can be reproduced
	// from its key alone.
	Key string
	// Run executes the unit and returns its value. It must be
	// self-contained: everything mutable it touches is created inside it
	// (or reached through it exclusively); anything shared with other
	// jobs is read-only.
	Run func() (T, error)
}

// Result is the outcome of one job.
type Result[T any] struct {
	// Key echoes the job's key.
	Key string
	// Index is the job's position in the input slice.
	Index int
	// Value is what Run returned; the zero value when Err is non-nil.
	Value T
	// Err is the run's failure. A panicking run is reported here as a
	// *PanicError, not allowed to crash the sweep.
	Err error
	// Elapsed is the run's wall-clock duration.
	Elapsed time.Duration
}

// PanicError reports a job whose Run panicked. The sweep continues; the
// panic surfaces as this error on the job's Result.
type PanicError struct {
	// Key is the panicking job's key.
	Key string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %q panicked: %v", e.Key, e.Value)
}

// Progress is a sweep status update, delivered after each job finishes.
type Progress struct {
	// Done and Total count finished and scheduled jobs.
	Done, Total int
	// Key is the job that just finished.
	Key string
	// Elapsed is the wall-clock time since the sweep started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time from the mean
	// per-completion pace so far (zero until the first job finishes).
	ETA time.Duration
}

// Pool bounds how a sweep executes.
type Pool struct {
	// Workers is the number of concurrent goroutines. 0 (or negative)
	// selects runtime.GOMAXPROCS(0); 1 runs every job inline on the
	// caller's goroutine — the legacy sequential path, bit-compatible
	// with the pre-runner loops.
	Workers int
	// OnProgress, when non-nil, receives one update per finished job.
	// Calls are serialized; the callback must not invoke the pool
	// reentrantly.
	OnProgress func(Progress)
}

func (p Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Map executes the jobs under the pool's concurrency bound and returns
// one Result per job, in job order regardless of completion order. It
// never fails as a whole: per-run errors and panics are reported on the
// corresponding Result.
func Map[T any](pool Pool, jobs []Job[T]) []Result[T] {
	results := make([]Result[T], len(jobs))
	if len(jobs) == 0 {
		return results
	}
	start := time.Now()
	var mu sync.Mutex // guards done and serializes OnProgress
	done := 0
	finish := func(i int) {
		if pool.OnProgress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done++
		elapsed := time.Since(start)
		var eta time.Duration
		if rem := len(jobs) - done; rem > 0 {
			eta = time.Duration(float64(elapsed) / float64(done) * float64(rem))
		}
		pool.OnProgress(Progress{
			Done: done, Total: len(jobs), Key: jobs[i].Key,
			Elapsed: elapsed, ETA: eta,
		})
	}

	n := pool.workers()
	if n == 1 {
		for i := range jobs {
			results[i] = runOne(jobs[i], i)
			finish(i)
		}
		return results
	}
	if n > len(jobs) {
		n = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runOne(jobs[i], i)
				finish(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runOne executes a single job with panic capture.
func runOne[T any](job Job[T], index int) (res Result[T]) {
	res.Key = job.Key
	res.Index = index
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			var zero T
			res.Value = zero
			res.Err = &PanicError{Key: job.Key, Value: r, Stack: debug.Stack()}
		}
	}()
	res.Value, res.Err = job.Run()
	return res
}

// Collect executes the jobs and returns just their values in job order,
// or the first (by job order) error. All jobs run to completion even
// when one fails, so a sweep's side effects do not depend on scheduling.
func Collect[T any](pool Pool, jobs []Job[T]) ([]T, error) {
	results := Map(pool, jobs)
	out := make([]T, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Key, r.Err)
		}
		out[i] = r.Value
	}
	return out, nil
}

// DeriveSeed derives the deterministic RNG seed for one run of a sweep
// from the sweep's base seed and the run's key. See stats.DeriveSeed.
func DeriveSeed(base uint64, key string) uint64 {
	return stats.DeriveSeed(base, key)
}
