package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/battery"
	"repro/internal/powersim"
	"repro/internal/trace"
	"repro/internal/units"
)

// reproGroups maps each cmd/experiments experiment onto the per-layer
// metric experiments.<group>_s that times it.
var reproGroups = map[string]string{
	"fig15": "fig15", "fig16a": "fig16a", "fig16b": "fig16b", "fig17": "fig17",
	"fig5": "fig5", "fig8a": "fig8", "fig8b": "fig8", "fig8c": "fig8",
	"ablations": "ablations",
}

var reproGroupNames = []string{"fig15", "fig16a", "fig16b", "fig17", "fig5", "fig8", "ablations", "other"}

// doneLine matches cmd/experiments' per-experiment timing line.
var doneLine = regexp.MustCompile(`^\[(\w+) done in ([0-9a-zµ.]+)\]$`)

// runRepro times the full paper reproduction: cmd/experiments with a
// fixed worker count in a fresh process (so the background-trace and
// battery-size caches start empty, as on every user run), its CSV/TXT
// output compared byte for byte with results/. The seed does not change
// the input: the reproduction has exactly one.
func runRepro(b *bench) error {
	bin := b.expBin
	work := filepath.Join(b.outDir, "repro")
	var golden map[string][]byte
	err := b.repeatSetup(5, func() error {
		var err error
		if golden, err = loadGolden(b.golden); err != nil {
			return err
		}
		if err := os.RemoveAll(work); err != nil {
			return err
		}
		if err := os.MkdirAll(work, 0o755); err != nil {
			return err
		}
		out, err := exec.Command(bin, "-version").Output()
		if err != nil {
			return fmt.Errorf("%s -version: %w", bin, err)
		}
		if !bytes.HasPrefix(out, []byte("experiments")) {
			return fmt.Errorf("%s: unexpected -version output %q", bin, out)
		}
		return nil
	}, func() error { return nil })
	if err != nil {
		return err
	}

	var (
		untraced, traced []time.Duration
		groups           = map[string][]float64{}
		busy             []float64
		gcPauseMS, heap  []float64
	)
	ref := refTime()
	err = b.measureLoop(func(i int) error {
		// A traced run keeps its first reproduction untraced as the
		// reference the tracing overhead is measured against.
		tracing := b.trace && i > 0
		dir := filepath.Join(work, strconv.Itoa(i))
		args := []string{"-workers", strconv.Itoa(workers), "-results", dir}
		if b.smoke {
			args = append(args, "-quick")
		}
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		cmd.Env = os.Environ()
		if tracing {
			cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("experiments: %w: %s", err, lastLines(stderr.String(), 5))
		}
		end := time.Now()
		wall := end.Sub(t0)
		b.results = append(b.results, wall)
		b.attempted++
		ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		before := ref
		ref = refTime()
		b.op(1, wall, rusageCPU(ru), hostSpeed(before, ref))
		b.peakRSSMB = max(b.peakRSSMB, float64(ru.Maxrss)/1024)

		if err := checkRepro(dir, golden, b.smoke); err != nil {
			b.fail(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if !tracing {
			untraced = append(untraced, wall)
			return nil
		}
		traced = append(traced, wall)
		busy = append(busy, rusageCPU(ru).Seconds()/(wall.Seconds()*workers))
		root := b.spans.add("repro", 0, i, t0, end)
		for g, d := range experimentSpans(b.spans, root, i, t0, stdout.String()) {
			groups[g] = append(groups[g], d)
		}
		p, h := parseGCTrace(stderr.String())
		gcPauseMS = append(gcPauseMS, p)
		heap = append(heap, h)
		return nil
	})
	if err != nil {
		return err
	}

	b.name("repro_s", median(seconds(b.results)), "s", fmt.Sprintf("median of %d", len(b.results)))
	if !b.trace {
		return nil
	}
	if len(traced) == 0 {
		return fmt.Errorf("traced run too short: no traced reproduction")
	}
	for _, g := range reproGroupNames {
		b.name("experiments."+g+"_s", median(groups[g]), "s", "")
	}
	b.name("runner.busy_share", median(busy), "ratio", "child CPU / (wall × workers)")
	b.name("go.gc_pause_ms", median(gcPauseMS), "ms", "STW per reproduction, gctrace")
	b.name("go.heap_mb", median(heap), "MB", "peak heap, gctrace")
	overhead := median(seconds(traced))/median(seconds(untraced)) - 1
	b.name("trace.overhead_share", overhead, "ratio", "traced vs untraced reproduction")

	b.layer("cpu.busy_share", median(busy), "ratio")
	b.layer("go.gc_pause_ms", median(gcPauseMS), "ms")
	b.layer("go.heap_mb", median(heap), "MB")
	b.layer("trace.overhead_share", overhead, "ratio")
	b.layer("fail_ratio", float64(b.failed)/float64(b.attempted), "ratio")

	// Layer probes at the reproduction's shape: 22 racks × 10 servers.
	b.probeTrace()
	b.probeBattery(10)
	return b.probeSim(22, 10, 3000)
}

// loadGolden reads every CSV and TXT file under dir.
func loadGolden(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("golden results: %w", err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if !isArtifact(e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = data
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("golden results: no CSV or TXT files in %s", dir)
	}
	return out, nil
}

func isArtifact(name string) bool {
	return strings.HasSuffix(name, ".csv") || strings.HasSuffix(name, ".txt")
}

// checkRepro compares a reproduction's output directory with the golden
// files: the same set of names, and (unless namesOnly, for the quick
// smoke scale) the same bytes.
func checkRepro(dir string, golden map[string][]byte, namesOnly bool) error {
	got, err := loadGolden(dir)
	if err != nil {
		return err
	}
	var names []string
	for name := range golden {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data, ok := got[name]
		if !ok {
			return fmt.Errorf("reproduction did not write %s", name)
		}
		if !namesOnly && !bytes.Equal(data, golden[name]) {
			return fmt.Errorf("%s differs from the golden file", name)
		}
	}
	for name := range got {
		if _, ok := golden[name]; !ok {
			return fmt.Errorf("reproduction wrote unexpected %s", name)
		}
	}
	return nil
}

// experimentSpans turns cmd/experiments' "[name done in D]" lines into
// child spans of the reproduction (laid end to end from its start, since
// experiments run one after another) and sums them per metric group.
func experimentSpans(l *spanLog, parent, traceID int, start time.Time, stdout string) map[string]float64 {
	out := map[string]float64{}
	at := start
	for _, line := range strings.Split(stdout, "\n") {
		m := doneLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		d, err := time.ParseDuration(m[2])
		if err != nil {
			continue
		}
		l.add("experiments."+m[1], parent, traceID, at, at.Add(d))
		at = at.Add(d)
		g := reproGroups[m[1]]
		if g == "" {
			g = "other"
		}
		out[g] += d.Seconds()
	}
	return out
}

// gcLine matches a GODEBUG=gctrace=1 line: the three wall-clock phase
// times (the first and last are stop-the-world) and the heap sizes.
var gcLine = regexp.MustCompile(`^gc \d+ @[0-9.]+s \d+%: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock, .* (\d+)->\d+->\d+ MB`)

// parseGCTrace sums stop-the-world pause time and finds the peak heap.
func parseGCTrace(stderr string) (pauseMS, peakHeapMB float64) {
	for _, line := range strings.Split(stderr, "\n") {
		m := gcLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		a, _ := strconv.ParseFloat(m[1], 64)
		c, _ := strconv.ParseFloat(m[2], 64)
		h, _ := strconv.ParseFloat(m[3], 64)
		pauseMS += a + c
		peakHeapMB = max(peakHeapMB, h)
	}
	return pauseMS, peakHeapMB
}

// probeTrace times the synthetic cluster-trace generator the paper's
// trace-driven experiments build their background from.
func (b *bench) probeTrace() {
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		tr, err := trace.Generate(trace.SynthConfig{Machines: 220, Horizon: 6 * time.Hour, Seed: b.seed + uint64(i)})
		if err == nil {
			_, err = trace.MachineSeries(tr, time.Second)
		}
		if err != nil {
			b.fail(fmt.Errorf("trace probe: %w", err))
			return
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
		b.spans.add("trace.generate", 0, 0, t0, time.Now())
	}
	b.name("trace.generate_ms", median(ms), "ms", "220 machines, 6 h, 1 s series")
}

// probeBattery times a cold SizeForAutonomy for one rack cabinet of
// spr servers (the size cache is reset before each call).
func (b *bench) probeBattery(spr int) {
	load := powersim.DL585G5.Peak * units.Watts(spr)
	var ms []float64
	for i := 0; i < 5; i++ {
		battery.ResetSizeCache()
		t0 := time.Now()
		battery.SizeForAutonomy(load, battery.RackCabinetAutonomy, 0, 0)
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
		b.spans.add("battery.size_for_autonomy", 0, 0, t0, time.Now())
	}
	battery.ResetSizeCache()
	b.name("battery.size_for_autonomy_ms", median(ms), "ms", fmt.Sprintf("cold, %d-server rack", spr))
	b.layer("battery.size_for_autonomy_ms", median(ms), "ms")
}

// lastLines returns the last n lines of s, for error messages.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
