package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke tests check
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var (
	expBinOnce sync.Once
	expBin     string
	expBinErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if expBin != "" {
		os.RemoveAll(filepath.Dir(expBin))
	}
	os.Exit(code)
}

// experimentsBinary builds cmd/experiments once for the package's tests.
func experimentsBinary(t *testing.T) string {
	t.Helper()
	expBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-exp")
		if err != nil {
			expBinErr = err
			return
		}
		expBin = filepath.Join(dir, "experiments")
		out, err := exec.Command("go", "build", "-o", expBin, "repro/cmd/experiments").CombinedOutput()
		if err != nil {
			expBinErr = err
			t.Logf("%s", out)
		}
	})
	if expBinErr != nil {
		t.Fatalf("build cmd/experiments: %v", expBinErr)
	}
	return expBin
}

// The workload-level names each workload prints, with units.
var namedMetrics = map[string]map[string]string{
	"repro": {
		"repro_s": "s", "experiments.fig15_s": "s", "experiments.fig16a_s": "s", "experiments.fig16b_s": "s",
		"experiments.fig17_s": "s", "experiments.fig5_s": "s", "experiments.fig8_s": "s",
		"experiments.ablations_s": "s", "experiments.other_s": "s", "runner.busy_share": "ratio",
		"trace.generate_ms": "ms", "go.gc_pause_ms": "ms", "go.heap_mb": "MB",
	},
	"search": {
		"search_s": "s", "search_evals_per_s": "1/s", "runner.busy_share": "ratio",
		"attacksearch.evals": "count", "attacksearch.trip_ratio": "ratio",
		"attacksearch.eval_p50_ms": "ms", "attacksearch.eval_p99_ms": "ms",
		"attacksearch.skip_saving_share": "ratio", "sim.ticks": "count",
		"go.gc_pause_ms": "ms", "go.heap_mb": "MB", "go.goroutines": "count",
	},
	"fleet": {
		"fleet_decision_p50_ms": "ms", "fleet_decision_p99_ms": "ms", "fleet_ack_p99_ms": "ms",
		"fleet_decided_samples_per_s": "1/s", "fleet_read_p99_ms": "ms", "gen.lag_p99_ms": "ms",
		"wire.encode_us_per_frame": "us", "padd.ack_rtt_p50_us": "us", "padd.ack_rtt_p99_us": "us",
		"padd.json_post_p99_ms": "ms", "padd.ack_to_decision_p50_ms": "ms", "padd.ack_to_decision_p99_ms": "ms",
		"padd.queue_depth_max": "count", "padd.advance_us_mean": "us", "padd.backpressure_frames": "count",
		"padd.rejected_batches": "count", "padd.coasts": "count", "padd.fleet_get_ms": "ms",
		"padd.metrics_get_ms": "ms", "padd.series_get_ms": "ms", "cpu.busy_share": "ratio",
		"go.gc_pause_ms": "ms", "go.heap_mb": "MB", "go.goroutines": "count", "sim.ticks": "count",
	},
}

// Names every workload prints in a traced run.
var commonNamed = map[string]string{
	"fail_ratio": "ratio", "peak_rss_mb": "MB", "trace.overhead_share": "ratio",
	"battery.size_for_autonomy_ms": "ms", "sim.new_stepper_ms": "ms", "sim.demand_ns_per_tick": "ns",
	"sim.advance_ns_per_tick.Conv": "ns", "sim.advance_ns_per_tick.PS": "ns", "sim.advance_ns_per_tick.PSPC": "ns",
	"sim.advance_ns_per_tick.uDEB": "ns", "sim.advance_ns_per_tick.vDEB": "ns", "sim.advance_ns_per_tick.PAD": "ns",
}

// TestSmokeWorkloads runs every workload at tiny size, untraced and
// traced, and checks that each emits every metric BENCHMARK.json names,
// and every workload-level name, with its unit.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, traced := range []bool{false, true} {
			b := &bench{
				seed: 7, seconds: 2 * time.Second, trace: traced, smoke: true,
				root: root, outDir: t.TempDir(), expBin: experimentsBinary(t),
				golden: filepath.Join(root, "results"),
			}
			res, err := b.execute(w.Name, run)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d (%v)",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, b.checkErr)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, m.Name, got.Value)
				}
			}
			if !traced {
				continue
			}
			named := map[string]string{}
			for _, m := range b.named {
				if !math.IsNaN(m.Value) {
					named[m.name] = m.Unit
				}
			}
			for _, set := range []map[string]string{namedMetrics[w.Name], commonNamed} {
				for name, unit := range set {
					if got, ok := named[name]; !ok {
						t.Errorf("%s: named metric %s not printed", w.Name, name)
					} else if got != unit {
						t.Errorf("%s: named metric %s unit %q, want %q", w.Name, name, got, unit)
					}
				}
			}
		}
	}
}

// TestEndToEndNamesMatchSpec keeps the code's metric lists and
// BENCHMARK.json in step.
func TestEndToEndNamesMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEndMetrics, ",") {
		t.Errorf("end_to_end %v, code reports %v", e2e, endToEndMetrics)
	}
	if strings.Join(layers, ",") != strings.Join(layerMetrics, ",") {
		t.Errorf("per_layer %v, code reports %v", layers, layerMetrics)
	}
}
