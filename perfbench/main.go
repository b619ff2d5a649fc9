// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks the workload's output, and prints
// every metric by name with its unit; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (README.md in this directory says why each was chosen):
//
//	repro   the full paper reproduction (cmd/experiments, 2 workers),
//	        byte-compared against results/
//	search  attacksearch.Search over all six schemes, budget 300,
//	        2 workers, frontier checked against a reference digest
//	fleet   a live padd.Server on loopback driven open loop by stream
//	        and JSON collectors plus operator reads
//
// With -trace 0 the JSON carries the end-to-end metrics, with -trace 1
// the per-layer ones; a traced run also writes its spans and every
// named metric under .bench_build/perfbench. Usage, from the repository
// root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload search -seed 3 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workers is the fixed worker count of the repro and search workloads.
const workers = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndMetrics and layerMetrics are the names every workload reports
// in the final line, untraced and traced; BENCHMARK.json lists the same.
var (
	endToEndMetrics = []string{"setup_s", "work_per_s", "cpu_ms_per_work", "peak_rss_mb"}
	layerMetrics    = []string{
		"sim.new_stepper_ms", "sim.demand_ns_per_tick",
		"sim.advance_ns_per_tick.Conv", "sim.advance_ns_per_tick.PS", "sim.advance_ns_per_tick.PSPC",
		"sim.advance_ns_per_tick.uDEB", "sim.advance_ns_per_tick.vDEB", "sim.advance_ns_per_tick.PAD",
		"battery.size_for_autonomy_ms", "cpu.busy_share", "go.gc_pause_ms", "go.heap_mb",
		"trace.overhead_share", "fail_ratio", "result_p50_ms", "result_tail_ms",
	}
)

// sameNames checks that m has exactly the given keys.
func sameNames(m map[string]metric, names []string) error {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			return fmt.Errorf("missing %s", n)
		}
	}
	if len(m) != len(names) {
		return fmt.Errorf("%d metrics, want %d", len(m), len(names))
	}
	return nil
}

// bench carries one run's settings and what the workload reports.
type bench struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	smoke   bool // tiny sizes for the package's own tests
	root    string
	outDir  string // scratch and trace output, inside the checkout
	expBin  string // cmd/experiments binary for the repro workload
	golden  string // results/ directory the repro output must match

	spans *spanLog

	// Filled by the workload.
	setup     []time.Duration // one per set-up repetition
	results   []time.Duration // the workload's unit results (p50/tail)
	opRate    []float64       // per measured operation: units of work per second
	opCPU     []float64       // per measured operation: CPU ms per unit of work
	speed     []float64       // per measured operation: host speed (calib.go)
	peakRSSMB float64
	attempted int64
	failed    int64
	checkErr  error             // first output-check failure
	layers    map[string]metric // per-layer metrics (traced runs)
	named     []namedMetric     // the workload's own metric names
}

// namedMetric is a metric printed by its workload-specific name.
type namedMetric struct {
	name string
	metric
	note string
}

func (b *bench) name(name string, v float64, unit, note string) {
	b.named = append(b.named, namedMetric{name, metric{v, unit}, note})
}

func (b *bench) layer(name string, v float64, unit string) {
	if b.layers == nil {
		b.layers = map[string]metric{}
	}
	b.layers[name] = metric{v, unit}
}

// fail records an output-check failure, keeping the first.
func (b *bench) fail(err error) {
	b.failed++
	if b.checkErr == nil {
		b.checkErr = err
	}
}

var workloads = map[string]func(*bench) error{
	"repro":  runRepro,
	"search": runSearch,
	"fleet":  runFleet,
}

func main() {
	var (
		workload = flag.String("workload", "", "repro, search or fleet")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want -workload repro|search|fleet, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		root:    root,
		outDir:  filepath.Join(root, ".bench_build", "perfbench"),
		expBin:  filepath.Join(root, ".bench_build", "bin", "experiments"),
		golden:  filepath.Join(root, "results"),
	}
	res, err := b.execute(*workload, run)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// execute runs one workload and assembles the result line. An error
// means the benchmark itself could not run; a failed output check is
// reported as correct=false instead.
func (b *bench) execute(workload string, run func(*bench) error) (*result, error) {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return nil, err
	}
	if b.trace {
		b.spans = newSpanLog()
	}
	if err := run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if len(b.results) == 0 || len(b.setup) == 0 || len(b.opRate) == 0 || len(b.opCPU) == 0 {
		return nil, fmt.Errorf("%s: no measurement", workload)
	}
	if b.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %v\n", workload, b.checkErr)
	}
	if b.attempted < 1 {
		b.attempted = 1
	}
	res := &result{
		Correct:   b.checkErr == nil,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.endToEnd(),
	}
	// The workload's own names, then the shared ones, all printed before
	// the final line.
	b.name("fail_ratio", float64(b.failed)/float64(b.attempted), "ratio", "")
	b.name("peak_rss_mb", b.peakRSSMB, "MB", "")
	b.name("host.speed", median(b.speed), "ratio", "reference loop, (nominal / measured)²")
	if err := sameNames(res.Metrics, endToEndMetrics); err != nil {
		return nil, fmt.Errorf("%s: end-to-end metrics: %w", workload, err)
	}
	if b.trace {
		// Result latencies are kept out of the bounded end-to-end set:
		// the fleet's swing with the host (README.md) wider than any bound.
		ms := durationsMS(b.results)
		tail, _ := tailQuantile(ms)
		b.layer("result_p50_ms", quantile(ms, 0.5), "ms")
		b.layer("result_tail_ms", tail, "ms")
		if err := sameNames(b.layers, layerMetrics); err != nil {
			return nil, fmt.Errorf("%s: per-layer metrics: %w", workload, err)
		}
		res.Metrics = b.layers
		if err := b.writeTrace(workload, res); err != nil {
			return nil, err
		}
	}
	for _, m := range b.named {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Printf("metric %-40s %14.6g %s%s\n", m.name, m.Value, m.Unit, note)
	}
	return res, nil
}

// endToEnd derives the end-to-end metrics BENCHMARK.json lists from what the
// workload measured. Rates and costs are medians over the run's
// operations, so one disturbed operation does not move the run.
func (b *bench) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":         {median(seconds(b.setup)), "s"},
		"work_per_s":      {median(b.opRate), "1/s"},
		"cpu_ms_per_work": {median(b.opCPU), "ms"},
		"peak_rss_mb":     {b.peakRSSMB, "MB"},
	}
}

// writeTrace writes the spans and every metric of a traced run.
func (b *bench) writeTrace(workload string, res *result) error {
	named := map[string]metric{}
	for _, m := range b.named {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			named[m.name] = m.metric
		}
	}
	doc := map[string]any{
		"workload": workload,
		"seed":     b.seed,
		"machine":  machine(),
		"result":   res,
		"named":    named,
		"spans":    b.spans.snapshot(),
		"self_ms":  b.spans.selfTimes(),
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, b.seed))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("perfbench: spans and metrics written to %s\n", path)
	return nil
}

func machine() map[string]any {
	return map[string]any{"nproc": runtime.NumCPU(), "go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH}
}

// measureLoop runs op until the measured time is spent: at least once,
// and in a traced run at least twice, since its first pass is the
// untraced reference.
func (b *bench) measureLoop(op func(i int) error) error {
	least := 1
	if b.trace {
		least = 2
	}
	start := time.Now()
	for i := 0; i < least || time.Since(start) < b.seconds; i++ {
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// repeatSetup runs set-up n times, recording each duration; teardown runs
// after every repetition but the last, whose state the workload keeps.
func (b *bench) repeatSetup(n int, setup func() error, teardown func() error) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setup = append(b.setup, time.Since(t0))
		if i < n-1 {
			if err := teardown(); err != nil {
				return fmt.Errorf("teardown: %w", err)
			}
		}
	}
	return nil
}

// selfRusage returns this process's CPU time and peak RSS in MB.
func selfRusage() (time.Duration, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return rusageCPU(&ru), float64(ru.Maxrss) / 1024
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ---- statistics ----

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// op records one measured operation: work units done in wall time using
// cpu, on a host running at speed relative to the reference (1 where
// the operation is not compute-bound).
func (b *bench) op(work float64, wall, cpu time.Duration, speed float64) {
	b.opRate = append(b.opRate, work/wall.Seconds()/speed)
	b.opCPU = append(b.opCPU, float64(cpu)/float64(time.Millisecond)/work*speed)
	b.speed = append(b.speed, speed)
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile; NaN for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailQuantile is the highest of p99.9, p99 and p90 that has at least
// ten samples beyond it, or the maximum when there are fewer than 100
// samples. The label names which one and the sample count.
func tailQuantile(v []float64) (float64, string) {
	n := len(v)
	for _, p := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}} {
		if float64(n)*(1-p.q) >= 10-1e-9 {
			return quantile(v, p.q), fmt.Sprintf("%s of %d", p.label, n)
		}
	}
	return quantile(v, 1), fmt.Sprintf("max of %d", n)
}

// nameLatency prints a latency distribution as p50 and tail under the
// workload's own names.
func (b *bench) nameLatency(p50Name, tailName string, ms []float64) {
	if len(ms) == 0 {
		b.name(p50Name, math.NaN(), "ms", "no samples")
		return
	}
	tail, label := tailQuantile(ms)
	b.name(p50Name, quantile(ms, 0.5), "ms", fmt.Sprintf("%d samples", len(ms)))
	if tailName != "" {
		b.name(tailName, tail, "ms", label)
	}
}
