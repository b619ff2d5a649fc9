package runner_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// sleepJobs builds jobs whose completion order is the reverse of their
// job order: early jobs sleep longest, so any pool that reported results
// in completion order would scramble them.
func sleepJobs(n int) []runner.Job[int] {
	jobs := make([]runner.Job[int], n)
	for i := range jobs {
		jobs[i] = runner.Job[int]{
			Key: fmt.Sprintf("job/%d", i),
			Run: func() (int, error) {
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestMapPreservesJobOrder(t *testing.T) {
	jobs := sleepJobs(12)
	results := runner.Map(runner.Pool{Workers: 6}, jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has Index %d", i, r.Index)
		}
		if want := fmt.Sprintf("job/%d", i); r.Key != want {
			t.Errorf("result %d has Key %q, want %q", i, r.Key, want)
		}
		if r.Err != nil {
			t.Errorf("result %d failed: %v", i, r.Err)
		}
		if r.Value != i*i {
			t.Errorf("result %d = %d, want %d", i, r.Value, i*i)
		}
		if r.Elapsed <= 0 {
			t.Errorf("result %d has non-positive Elapsed %v", i, r.Elapsed)
		}
	}
}

func TestMapCapturesPanics(t *testing.T) {
	jobs := []runner.Job[string]{
		{Key: "ok/0", Run: func() (string, error) { return "a", nil }},
		{Key: "boom", Run: func() (string, error) { panic("kaboom") }},
		{Key: "ok/1", Run: func() (string, error) { return "b", nil }},
	}
	for _, workers := range []int{1, 3} {
		results := runner.Map(runner.Pool{Workers: workers}, jobs)
		if results[0].Err != nil || results[0].Value != "a" {
			t.Fatalf("workers=%d: healthy job 0 broken: %+v", workers, results[0])
		}
		if results[2].Err != nil || results[2].Value != "b" {
			t.Fatalf("workers=%d: healthy job 2 broken: %+v", workers, results[2])
		}
		var pe *runner.PanicError
		if !errors.As(results[1].Err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %v", workers, results[1].Err)
		}
		if pe.Key != "boom" || pe.Value != "kaboom" {
			t.Errorf("workers=%d: PanicError = %q/%v", workers, pe.Key, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError has empty stack", workers)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Errorf("workers=%d: Error() = %q, want the key in it", workers, pe.Error())
		}
		if results[1].Value != "" {
			t.Errorf("workers=%d: panicked job has non-zero value %q", workers, results[1].Value)
		}
	}
}

func TestCollectReturnsFirstErrorByJobOrder(t *testing.T) {
	errA := errors.New("a failed")
	errB := errors.New("b failed")
	var ran atomic.Int32
	jobs := []runner.Job[int]{
		{Key: "fine", Run: func() (int, error) { ran.Add(1); return 1, nil }},
		// The later-indexed failure sleeps less, so with >1 workers it
		// finishes first; Collect must still report the earlier job's
		// error.
		{Key: "slow-fail", Run: func() (int, error) {
			ran.Add(1)
			time.Sleep(20 * time.Millisecond)
			return 0, errA
		}},
		{Key: "fast-fail", Run: func() (int, error) { ran.Add(1); return 0, errB }},
		{Key: "tail", Run: func() (int, error) { ran.Add(1); return 4, nil }},
	}
	_, err := runner.Collect(runner.Pool{Workers: 4}, jobs)
	if !errors.Is(err, errA) {
		t.Fatalf("want first error by job order (%v), got %v", errA, err)
	}
	if !strings.Contains(err.Error(), "slow-fail") {
		t.Errorf("error %q does not name the failing job", err)
	}
	if got := ran.Load(); got != 4 {
		t.Errorf("only %d of 4 jobs ran; all jobs must run even when one fails", got)
	}
}

func TestCollectValues(t *testing.T) {
	values, err := runner.Collect(runner.Pool{Workers: 3}, sleepJobs(7))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 4, 9, 16, 25, 36}
	if !reflect.DeepEqual(values, want) {
		t.Fatalf("Collect = %v, want %v", values, want)
	}
}

// TestWorkerCountInvariance runs the same deterministic jobs under
// different pool sizes and demands identical outputs: the worker count
// must never leak into results.
func TestWorkerCountInvariance(t *testing.T) {
	mkJobs := func() []runner.Job[float64] {
		jobs := make([]runner.Job[float64], 16)
		for i := range jobs {
			key := fmt.Sprintf("sweep/run=%d", i)
			jobs[i] = runner.Job[float64]{
				Key: key,
				Run: func() (float64, error) {
					rng := stats.NewRNG(runner.DeriveSeed(42, key))
					sum := 0.0
					for k := 0; k < 1000; k++ {
						sum += rng.Float64()
					}
					return sum, nil
				},
			}
		}
		return jobs
	}
	base, err := runner.Collect(runner.Pool{Workers: 1}, mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 8} {
		got, err := runner.Collect(runner.Pool{Workers: workers}, mkJobs())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d produced different values than workers=1", workers)
		}
	}
}

func TestProgressReporting(t *testing.T) {
	const n = 9
	var mu []runner.Progress
	pool := runner.Pool{
		Workers:    4,
		OnProgress: func(p runner.Progress) { mu = append(mu, p) }, // serialized by the pool
	}
	runner.Map(pool, sleepJobs(n))
	if len(mu) != n {
		t.Fatalf("got %d progress updates, want %d", len(mu), n)
	}
	seen := map[string]bool{}
	for i, p := range mu {
		if p.Done != i+1 {
			t.Errorf("update %d has Done=%d, want %d", i, p.Done, i+1)
		}
		if p.Total != n {
			t.Errorf("update %d has Total=%d, want %d", i, p.Total, n)
		}
		if p.Elapsed <= 0 {
			t.Errorf("update %d has non-positive Elapsed", i)
		}
		if seen[p.Key] {
			t.Errorf("key %q reported twice", p.Key)
		}
		seen[p.Key] = true
	}
	if last := mu[n-1]; last.ETA != 0 {
		t.Errorf("final update has ETA=%v, want 0", last.ETA)
	}
	if first := mu[0]; first.ETA <= 0 {
		t.Errorf("first update has ETA=%v, want > 0", first.ETA)
	}
}

func TestEmptyAndSingleJob(t *testing.T) {
	if got := runner.Map(runner.Pool{}, []runner.Job[int]{}); len(got) != 0 {
		t.Fatalf("empty job slice returned %d results", len(got))
	}
	values, err := runner.Collect(runner.Pool{Workers: 8}, []runner.Job[int]{
		{Key: "solo", Run: func() (int, error) { return 7, nil }},
	})
	if err != nil || len(values) != 1 || values[0] != 7 {
		t.Fatalf("single job: values=%v err=%v", values, err)
	}
}

func TestDeriveSeed(t *testing.T) {
	if runner.DeriveSeed(1, "a") != runner.DeriveSeed(1, "a") {
		t.Error("DeriveSeed is not deterministic")
	}
	seen := map[uint64]string{}
	for _, key := range []string{"", "a", "b", "ab", "fig15/PAD/Dense/CPU", "fig15/PAD/Dense/IO"} {
		s := runner.DeriveSeed(99, key)
		if prev, dup := seen[s]; dup {
			t.Errorf("keys %q and %q collide on seed %d", prev, key, s)
		}
		seen[s] = key
	}
	if runner.DeriveSeed(1, "x") == runner.DeriveSeed(2, "x") {
		t.Error("base seed does not influence the derived seed")
	}
}

// flatBackground builds per-server utilization series pinned at u.
func flatBackground(servers int, u float64) []*stats.Series {
	out := make([]*stats.Series, servers)
	for i := range out {
		s := stats.NewSeries(time.Hour)
		s.Append(u)
		s.Append(u)
		out[i] = s
	}
	return out
}

// TestSimRunsAreIsolated drives real simulations through the pool at
// eight workers. Under -race this is the per-run isolation check for the
// whole engine: concurrent runs share only the read-only background
// series, and every run's Result must echo its own key and match the
// sequential rerun of the same config.
func TestSimRunsAreIsolated(t *testing.T) {
	const racks, spr = 2, 4
	bg := flatBackground(racks*spr, 0.4)
	mkJobs := func() []runner.Job[*sim.Result] {
		var jobs []runner.Job[*sim.Result]
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("race/run=%d", i)
			jobs = append(jobs, runner.Job[*sim.Result]{
				Key: key,
				Run: func() (*sim.Result, error) {
					cfg := sim.Config{
						Key:            key,
						Racks:          racks,
						ServersPerRack: spr,
						Tick:           100 * time.Millisecond,
						Duration:       5 * time.Second,
						Background:     bg,
						Attacks: []sim.AttackSpec{{
							Servers: []int{0, 1},
							Attack: virus.MustNew(virus.Config{
								Profile:         virus.CPUIntensive,
								PrepDuration:    time.Second,
								MaxPhaseI:       time.Second,
								SpikeWidth:      time.Second,
								SpikesPerMinute: 30,
								Seed:            runner.DeriveSeed(7, key),
							}),
						}},
					}
					return sim.Run(cfg, schemes.NewPS(schemes.Options{}))
				},
			})
		}
		return jobs
	}
	parallel, err := runner.Collect(runner.Pool{Workers: 8}, mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := runner.Collect(runner.Pool{Workers: 1}, mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	for i := range parallel {
		key := fmt.Sprintf("race/run=%d", i)
		if parallel[i].Key != key {
			t.Errorf("run %d: Result.Key = %q, want %q", i, parallel[i].Key, key)
		}
		if !reflect.DeepEqual(parallel[i], sequential[i]) {
			t.Errorf("run %d: parallel result differs from sequential rerun", i)
		}
	}
}
