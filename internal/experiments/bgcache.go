package experiments

import (
	"time"

	"repro/internal/stats"
)

// Background-trace cache. A six-scheme comparison sweep runs dozens of
// jobs over the same background workload, and several drivers used to
// rebuild the full per-server series set inside every job. The
// generators are pure functions of their arguments, so identical
// argument tuples always produce identical series — the cache builds
// each distinct background once per process and hands every subsequent
// caller the same read-only slice. That is safe under the package's
// concurrency contract: Config.Background is the one sanctioned shared
// input, and the engine only ever reads it. Because the cached series
// are bitwise the very values the generator would have returned, sweep
// output is byte-identical with and without the cache.
//
// The key spells out the full argument tuple of every generator; unused
// fields stay zero for generators with fewer knobs, and kind keeps
// different generators with coinciding numeric arguments apart.
type bgKey struct {
	kind       string
	servers    int
	lo, hi     float64
	horizon    time.Duration
	step       time.Duration
	seed       uint64
	surge      bool
	burstEvery time.Duration
	burstLen   time.Duration
	burstBoost float64
}

// bgCache builds each distinct background once per process.
var bgCache memo[bgKey, []*stats.Series]

func cachedTraceBackground(servers int, horizon, step time.Duration, seed uint64, surge bool) ([]*stats.Series, error) {
	return bgCache.get(
		bgKey{kind: "trace", servers: servers, horizon: horizon, step: step, seed: seed, surge: surge},
		func() ([]*stats.Series, error) {
			return traceBackground(servers, horizon, step, seed, surge)
		})
}

func cachedBurstyRampBackground(servers int, lo, hi float64, horizon time.Duration,
	seed uint64, burstEvery, burstLen time.Duration, burstBoost float64) []*stats.Series {
	return bgCache.mustGet(
		bgKey{
			kind: "burstyRamp", servers: servers, lo: lo, hi: hi, horizon: horizon, seed: seed,
			burstEvery: burstEvery, burstLen: burstLen, burstBoost: burstBoost,
		},
		func() []*stats.Series {
			return burstyRampBackground(servers, lo, hi, horizon, seed, burstEvery, burstLen, burstBoost)
		})
}

func cachedFlatNoisyBackground(servers int, mean float64, horizon time.Duration, seed uint64) []*stats.Series {
	return bgCache.mustGet(
		bgKey{kind: "flatNoisy", servers: servers, lo: mean, hi: mean, horizon: horizon, seed: seed},
		func() []*stats.Series {
			return stats.NoisyUtilization(servers, mean, horizon, 10*time.Second, seed)
		})
}

func cachedFineNoisyBackground(servers int, mean float64, horizon time.Duration, seed uint64) []*stats.Series {
	return bgCache.mustGet(
		bgKey{kind: "fineNoisy", servers: servers, lo: mean, hi: mean, horizon: horizon, seed: seed},
		func() []*stats.Series {
			return fineNoisyBackground(servers, mean, horizon, seed)
		})
}
