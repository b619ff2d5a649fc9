// Package fixedstep is the fixed-timestep kernel layer: tiny single-slot
// caches for coefficients that depend only on the step duration. A
// simulation run advances with one constant tick, yet several models used
// to re-derive transcendental per-dt factors (exp/sqrt/pow of the tick)
// on every step — the KiBaM well-coupling terms, breaker cooling, EWMA
// alphas, metering noise sigma. Hoisting those out of the hot loop is the
// classic fixed-timestep-simulator discipline: compute each coefficient
// once per (instance, dt) and reuse the identical bits until the step
// changes.
//
// The caches are deliberately single-slot (last dt wins) rather than
// maps: within one run dt never changes, so a slot hits on every tick
// after the first, costs one comparison, and needs no eviction or
// locking. Instances that are stepped with alternating durations simply
// recompute — correctness never depends on a hit, only speed does.
//
// Bit-identity contract: a cached coefficient must hold exactly the value
// the direct formula would produce — callers recompute the same
// expression, store it, and reuse it verbatim, so cached and uncached
// paths are indistinguishable to the float64 bit. Tests that pin golden
// CSVs rely on this.
//
// Concurrency: a Key (like the models embedding it) is confined to one
// goroutine; see the sim package's concurrency contract.
package fixedstep

import "time"

// Key is the cache key of a single-slot per-dt coefficient cache. The
// zero value is an empty cache.
type Key struct {
	dt    time.Duration
	valid bool
}

// Hit reports whether coefficients cached for dt are still valid, and
// records dt as the new cached key when they are not. Callers recompute
// and store their coefficients exactly when Hit reports false:
//
//	if !b.coefKey.Hit(dt) {
//		b.coef = expensiveCoefficients(dt)
//	}
//	// use b.coef
func (k *Key) Hit(dt time.Duration) bool {
	if k.valid && k.dt == dt {
		return true
	}
	k.dt = dt
	k.valid = true
	return false
}
