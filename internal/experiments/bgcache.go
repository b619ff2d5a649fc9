package experiments

import (
	"sync"
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

// bgEntry carries the singleflight for one key: the first caller builds
// under the Once while latecomers for the same key block only on that
// entry, not on the whole cache.
type bgEntry struct {
	once   sync.Once
	series []*stats.Series
	err    error
}

var bgCache struct {
	mu sync.Mutex
	m  map[bgKey]*bgEntry
}

// cachedBackground returns the series for key, building them at most
// once per process via build.
func cachedBackground(key bgKey, build func() ([]*stats.Series, error)) ([]*stats.Series, error) {
	bgCache.mu.Lock()
	if bgCache.m == nil {
		bgCache.m = make(map[bgKey]*bgEntry)
	}
	e := bgCache.m[key]
	if e == nil {
		e = &bgEntry{}
		bgCache.m[key] = e
	}
	bgCache.mu.Unlock()
	e.once.Do(func() { e.series, e.err = build() })
	return e.series, e.err
}

func cachedTraceBackground(servers int, horizon, step time.Duration, seed uint64, surge bool) ([]*stats.Series, error) {
	return cachedBackground(
		bgKey{kind: "trace", servers: servers, horizon: horizon, step: step, seed: seed, surge: surge},
		func() ([]*stats.Series, error) {
			return traceBackground(servers, horizon, step, seed, surge)
		})
}

func cachedBurstyRampBackground(servers int, lo, hi float64, horizon time.Duration,
	seed uint64, burstEvery, burstLen time.Duration, burstBoost float64) []*stats.Series {
	out, _ := cachedBackground(
		bgKey{
			kind: "burstyRamp", servers: servers, lo: lo, hi: hi, horizon: horizon, seed: seed,
			burstEvery: burstEvery, burstLen: burstLen, burstBoost: burstBoost,
		},
		func() ([]*stats.Series, error) {
			return burstyRampBackground(servers, lo, hi, horizon, seed, burstEvery, burstLen, burstBoost), nil
		})
	return out
}

func cachedFlatNoisyBackground(servers int, mean float64, horizon time.Duration, seed uint64) []*stats.Series {
	out, _ := cachedBackground(
		bgKey{kind: "flatNoisy", servers: servers, lo: mean, hi: mean, horizon: horizon, seed: seed},
		func() ([]*stats.Series, error) {
			return flatNoisyBackground(servers, mean, horizon, seed), nil
		})
	return out
}

func cachedFineNoisyBackground(servers int, mean float64, horizon time.Duration, seed uint64) []*stats.Series {
	out, _ := cachedBackground(
		bgKey{kind: "fineNoisy", servers: servers, lo: mean, hi: mean, horizon: horizon, seed: seed},
		func() ([]*stats.Series, error) {
			return fineNoisyBackground(servers, mean, horizon, seed), nil
		})
	return out
}
