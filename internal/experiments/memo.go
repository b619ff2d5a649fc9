package experiments

import (
	"fmt"
	"sync"
)

// memo is a process-wide singleflight cache for pure computations: the
// first caller for a key builds its value under that key's Once, while
// latecomers for the same key block only on that entry, not on the
// whole cache. Every caller for a key sees the same value or error; a
// build that panics panics its own caller and leaves every later caller
// an error, never a zero value posing as the result. Values are shared,
// so they must be read-only once built.
//
// The experiments use one, for Figure 16's attack-free reference
// throughput (fig16.go).
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns key's value, building it with build at most once per
// process.
func (c *memo[K, V]) get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	}
	e := c.m[key]
	if e == nil {
		e = &memoEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("experiments: memoized build for %v panicked: %v", key, r)
				panic(r)
			}
		}()
		e.v, e.err = build()
	})
	return e.v, e.err
}
