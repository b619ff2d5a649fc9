package experiments

import (
	"runtime"
	"testing"
)

// benchSweep is a multi-figure sweep: the attack-effectiveness sweep
// (Fig8A: 3 profiles × 4 node counts × 4 overshoot limits, 48 runs)
// plus the throughput-vs-width sweep (Fig16B: 4 schemes × 5 widths, 20
// attacked runs, and one attack-free reference run per scheme) —
// enough independent jobs to keep a pool busy. The references are
// memoized process-wide, so only the first iteration simulates them.
func benchSweep(b *testing.B, workers int) {
	p := Params{Quick: true, Workers: workers}
	for i := 0; i < b.N; i++ {
		if _, err := Fig8A(p); err != nil {
			b.Fatal(err)
		}
		if _, err := Fig16B(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSequential is the legacy one-goroutine path.
func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel fans the same sweep across GOMAXPROCS workers.
// Comparing the two ns/op shows the runner's speedup; on an N-core
// machine it approaches min(N, jobs-per-figure)× for the dominant
// figure. The outputs are byte-identical either way (see
// TestWorkerCountCSVIdentity).
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, runtime.GOMAXPROCS(0)) }
