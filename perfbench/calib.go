package main

import (
	"math"
	"sync"
	"time"
)

// The host this benchmark was tuned on is a shared VM whose speed swung
// by a third within an hour: the same reproduction took 5.2 s, 8.4 s and
// 6.2 s. Compute-bound rates and CPU costs are therefore scaled by a
// fixed reference loop timed next to each operation, which slows and
// speeds up with the host but never with the repository's code.

// refNominal is the reference loop's wall time on the tuning host at its
// median speed; normalized values read as if the host ran at that speed.
const refNominal = 100 * time.Millisecond

// refIters sizes the reference loop to about refNominal.
const refIters = 9_000_000

// refSink keeps the compiler from removing the reference loop.
var refSink float64

// refTime is the fastest of three reference loops: a transient stall
// lengthens one, while a slower host lengthens all three.
func refTime() time.Duration {
	best := refLoop()
	for i := 0; i < 2; i++ {
		best = min(best, refLoop())
	}
	return best
}

// refLoop runs the reference loop on workers goroutines at once (so both
// cores are sampled, as the workloads use both) and returns its wall time.
func refLoop() time.Duration {
	var wg sync.WaitGroup
	sums := make([]float64, workers)
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf [4096]float64
			x := 1.0 + float64(w)
			for i := 0; i < refIters; i++ {
				j := i & (len(buf) - 1)
				buf[j] = buf[j]*0.5 + math.Sqrt(x)
				x += 1e-9 * buf[j]
			}
			sums[w] = x
		}(w)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		refSink += s
	}
	return d
}

// hostSpeed is the host's speed relative to refNominal around one
// operation: the reference loop's nominal time over its measured time,
// averaged before and after, squared. The square is measured, not
// chosen: across 100 search and 30 reproduction operations timed between
// reference loops, the log of their rate moved 1.4 to 2.8 times as far
// as the log of the loop's (presumably because the engine's working set
// feels a neighbour's contention more than an L1-resident loop does).
// Against the unsquared ratio, the square narrowed the spread of medians
// over runs of 3 to 5 consecutive operations in seven comparisons of
// eight, by up to a half.
func hostSpeed(before, after time.Duration) float64 {
	r := float64(refNominal) / (float64(before+after) / 2)
	return r * r
}
