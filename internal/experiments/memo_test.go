package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoBuildsOncePerKey has 16 goroutines ask for 4 keys at once,
// each in a different order: every key is built exactly once, and all
// callers of a key get the same value, or the same error.
func TestMemoBuildsOncePerKey(t *testing.T) {
	const callers, keys = 16, 4
	var c memo[int, *int]
	var builds [keys]atomic.Int32
	errBuild := errors.New("build failed")
	type outcome struct {
		v   *int
		err error
	}
	got := make([][keys]outcome, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range keys {
				key := (g + i) % keys
				v, err := c.get(key, func() (*int, error) {
					builds[key].Add(1)
					time.Sleep(time.Millisecond) // hold latecomers on the entry
					if key%2 == 1 {
						return nil, fmt.Errorf("key %d: %w", key, errBuild)
					}
					x := 10 * key
					return &x, nil
				})
				got[g][key] = outcome{v, err}
			}
		}()
	}
	close(start)
	wg.Wait()
	for key := range keys {
		if n := builds[key].Load(); n != 1 {
			t.Errorf("key %d built %d times, want 1", key, n)
		}
		first := got[0][key]
		if key%2 == 1 && !errors.Is(first.err, errBuild) {
			t.Errorf("key %d: err %v, want the build error", key, first.err)
		}
		if key%2 == 0 && (first.err != nil || *first.v != 10*key) {
			t.Errorf("key %d: %v, %v; want %d", key, first.v, first.err, 10*key)
		}
		for g := range callers {
			if got[g][key] != first {
				t.Errorf("caller %d saw %+v for key %d, caller 0 saw %+v", g, got[g][key], key, first)
			}
		}
	}
}

// TestMemoPanickingBuild: a build that panics must not leave its entry
// looking built. Its own caller keeps the panic; a later caller for the
// key gets an error naming it, not the zero value.
func TestMemoPanickingBuild(t *testing.T) {
	var c memo[int, []int]
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("first caller recovered %v, want the build's panic", r)
			}
		}()
		c.get(1, func() ([]int, error) { panic("boom") })
	}()
	v, err := c.get(1, func() ([]int, error) { return []int{1}, nil })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("later caller got %v, %v; want an error naming the panic", v, err)
	}
}

// TestFig16ConcurrentCSVIdentity draws Figure 16's two charts at once
// from a cold reference memo, so their jobs race to build the shared
// references, and requires the CSVs the charts give when drawn one
// after the other.
func TestFig16ConcurrentCSVIdentity(t *testing.T) {
	figs := []func(Params) (*Fig16Result, error){Fig16A, Fig16B}
	want := make([][]byte, len(figs))
	fig16Refs = memo[fig16RefKey, float64]{}
	for i, fig := range figs {
		r, err := fig(Params{Quick: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = csvOf(t, r.Table)
	}

	fig16Refs = memo[fig16RefKey, float64]{}
	got := make([]*Fig16Result, len(figs))
	errs := make([]error, len(figs))
	var wg sync.WaitGroup
	for i, fig := range figs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = fig(Params{Quick: true, Workers: 4})
		}()
	}
	wg.Wait()
	for i := range figs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if b := csvOf(t, got[i].Table); !bytes.Equal(b, want[i]) {
			t.Errorf("concurrent CSV differs from sequential:\n--- sequential\n%s--- concurrent\n%s", want[i], b)
		}
	}
}
