package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

func names(es []experiment) string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return strings.Join(out, ",")
}

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct{ only, want string }{
		{"", names(all)},
		{" , ", names(all)},
		{"fig15", "fig15"},
		// Run order, not flag order; case and spaces are ignored, and a
		// repeated name runs once.
		{"ablations, FIG5,fig15,fig5", "fig5,fig15,ablations"},
	} {
		got, err := selectExperiments(tc.only)
		if err != nil {
			t.Errorf("-only %q: %v", tc.only, err)
			continue
		}
		if names(got) != tc.want {
			t.Errorf("-only %q selected %s, want %s", tc.only, names(got), tc.want)
		}
	}
}

func TestSelectExperimentsRejectsUnknownNames(t *testing.T) {
	for _, only := range []string{"ablation_governor", "fig15,nosuchname", "fig99"} {
		got, err := selectExperiments(only)
		if err == nil {
			t.Errorf("-only %q selected %s, want an error", only, names(got))
			continue
		}
		msg := err.Error()
		for _, e := range all {
			if !strings.Contains(msg, e.name) {
				t.Errorf("-only %q: error %q does not list %s", only, msg, e.name)
			}
		}
	}
	_, err := selectExperiments("fig15,nosuchname,ablation_governor")
	if err == nil || !strings.Contains(err.Error(), "ablation_governor, nosuchname;") {
		t.Errorf("error should name every unknown experiment, sorted: %v", err)
	}
}

// doneIn matches the driver's "[name done in D]" line.
var doneIn = regexp.MustCompile(`\[(\w+) done in [^\]]+\]`)

// TestRunAllWorkerIdentity drives the whole quick reproduction at one
// worker, one experiment at a time, and at three, two at a time. Stdout
// must match once the durations are blanked, with every experiment's
// line in run order, and every file written must be byte-equal.
func TestRunAllWorkerIdentity(t *testing.T) {
	reproduce := func(workers int) (string, map[string][]byte) {
		dir := t.TempDir()
		var out bytes.Buffer
		if err := runAll(&out, experiments.Params{Quick: true, Workers: workers}, dir, all); err != nil {
			t.Fatalf("-workers %d: %v", workers, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, e := range entries {
			if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return doneIn.ReplaceAllString(out.String(), "[$1 done in D]"), files
	}
	out1, files1 := reproduce(1)
	out3, files3 := reproduce(3)

	var order []string
	for _, m := range doneIn.FindAllStringSubmatch(out1, -1) {
		order = append(order, m[1])
	}
	if got := strings.Join(order, ","); got != names(all) {
		t.Errorf("-workers 1 printed done lines for %s, want %s", got, names(all))
	}
	if out1 != out3 {
		t.Errorf("stdout differs between -workers 1 and 3:\n%s", firstDiff(out1, out3))
	}
	if len(files1) == 0 || len(files1) != len(files3) {
		t.Errorf("-workers 1 wrote %d files, -workers 3 %d", len(files1), len(files3))
	}
	for name, b := range files1 {
		if !bytes.Equal(b, files3[name]) {
			t.Errorf("%s differs between -workers 1 and 3", name)
		}
	}
}

// firstDiff shows the first line where a and b differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(al), len(bl))
}

// TestRunAllInFlight: runAll runs at most two experiments at once, one
// when the budget holds one slot, with a Workers of 0 or below resolved
// to GOMAXPROCS first. The experiments here only sleep, so a second one
// in flight always overlaps the first.
func TestRunAllInFlight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, workers, want int }{
		{1, 0, 1}, {1, -1, 1}, {3, 0, 2}, {3, -1, 2}, {3, 1, 1}, {1, 2, 2}, {1, 5, 2},
	} {
		runtime.GOMAXPROCS(tc.procs)
		var running, high atomic.Int32
		var run []experiment
		for i := range 4 {
			run = append(run, experiment{fmt.Sprint("e", i), func(_ experiments.Params, o *output) error {
				n := running.Add(1)
				for h := high.Load(); n > h && !high.CompareAndSwap(h, n); h = high.Load() {
				}
				time.Sleep(10 * time.Millisecond)
				running.Add(-1)
				fmt.Fprintf(o, "out %d\n", i)
				return nil
			}})
		}
		var out bytes.Buffer
		if err := runAll(&out, experiments.Params{Workers: tc.workers}, t.TempDir(), run); err != nil {
			t.Fatal(err)
		}
		if got := int(high.Load()); got != tc.want {
			t.Errorf("GOMAXPROCS %d, -workers %d: %d experiments ran at once, want %d",
				tc.procs, tc.workers, got, tc.want)
		}
		want := "out 0\n[e0 done in D]\n\nout 1\n[e1 done in D]\n\nout 2\n[e2 done in D]\n\nout 3\n[e3 done in D]\n\n"
		if got := doneIn.ReplaceAllString(out.String(), "[$1 done in D]"); got != want {
			t.Errorf("GOMAXPROCS %d, -workers %d: printed %q, want %q", tc.procs, tc.workers, got, want)
		}
	}
}

// TestRunAllStopsAtFailure: a failing experiment's output is printed,
// without a done line, and its error, named, is what runAll returns.
func TestRunAllStopsAtFailure(t *testing.T) {
	errBroken := errors.New("broken")
	run := []experiment{
		{"ok", func(_ experiments.Params, o *output) error { fmt.Fprintln(o, "ok ran"); return nil }},
		{"bad", func(_ experiments.Params, o *output) error { fmt.Fprintln(o, "bad ran"); return errBroken }},
		{"after", func(_ experiments.Params, o *output) error { return nil }},
	}
	var out bytes.Buffer
	err := runAll(&out, experiments.Params{Workers: 1}, t.TempDir(), run)
	if !errors.Is(err, errBroken) || !strings.HasPrefix(err.Error(), "bad: ") {
		t.Fatalf("runAll returned %v, want bad's error", err)
	}
	if got, want := doneIn.ReplaceAllString(out.String(), "[$1 done in D]"), "ok ran\n[ok done in D]\n\nbad ran\n"; got != want {
		t.Errorf("printed %q, want %q", got, want)
	}
}
