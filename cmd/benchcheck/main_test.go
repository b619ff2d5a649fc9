package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimRunConv-4        	      30	   1302350 ns/op	    7440 B/op	      54 allocs/op
BenchmarkSimRunPAD           	      30	   1575895 ns/op	   12368 B/op	     193 allocs/op
BenchmarkStepperTick-4       	     200	      3819 ns/op	      39 B/op	       0 allocs/op
BenchmarkNoMem               	      30	   1000000 ns/op
PASS
ok  	repro/internal/sim	0.424s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkSimRunPAD"].nsOp != 1575895 {
		t.Fatalf("PAD ns/op = %v", got["BenchmarkSimRunPAD"])
	}
	// The -4 GOMAXPROCS suffix must be stripped.
	if got["BenchmarkSimRunConv"].nsOp != 1302350 {
		t.Fatalf("Conv ns/op = %v (suffix not stripped?)", got["BenchmarkSimRunConv"])
	}
	if m := got["BenchmarkStepperTick"]; !m.hasAllocs || m.allocsOp != 0 {
		t.Fatalf("StepperTick allocs = %+v", m)
	}
	if m := got["BenchmarkSimRunPAD"]; !m.hasAllocs || m.allocsOp != 193 {
		t.Fatalf("PAD allocs = %+v", m)
	}
	if m := got["BenchmarkNoMem"]; m.hasAllocs {
		t.Fatalf("no-benchmem line claims allocs: %+v", m)
	}
}

func TestParseBenchMedian(t *testing.T) {
	out := "BenchmarkA-2 \t 10 \t 300 ns/op \t 5 allocs/op\n" +
		"BenchmarkA-2 \t 10 \t 100 ns/op \t 5 allocs/op\n" +
		"BenchmarkA-2 \t 10 \t 900 ns/op \t 7 allocs/op\n" +
		"BenchmarkB \t 10 \t 100 ns/op\n" +
		"BenchmarkB \t 10 \t 200 ns/op\n"
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if m := got["BenchmarkA"]; m.nsOp != 300 || len(m.columns) != 2 || m.columns[1].value != 5 || m.allocsOp != 7 {
		t.Errorf("three runs: %+v, want the medians 300 ns/op and 5 allocs/op, and 7 allocs/op, the most any run reported, for the gate", m)
	}
	if m := got["BenchmarkB"]; m.nsOp != 150 {
		t.Errorf("two runs: %+v, want the mean of the middle two, 150 ns/op", m)
	}
}

func TestRunZeroAllocsGateRepeats(t *testing.T) {
	base := writeBaseline(t, 1500000)
	// Two of three repeats allocate nothing, so the median is 0 — but the
	// gate holds every run to 0.
	out := "BenchmarkStepperTick \t 10 \t 100 ns/op \t 0 allocs/op\n" +
		"BenchmarkStepperTick \t 10 \t 100 ns/op \t 1 allocs/op\n" +
		"BenchmarkStepperTick \t 10 \t 100 ns/op \t 0 allocs/op\n"
	var report strings.Builder
	err := run(strings.NewReader(out), base, nil, []string{"BenchmarkStepperTick"}, nil, 2.0, &report)
	if err == nil || !strings.Contains(err.Error(), "allocates") {
		t.Fatalf("one allocating repeat passed the zero-allocs gate: %v", err)
	}
}

func writeBaseline(t *testing.T, nsOp float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	content := fmt.Sprintf(`{"after":{"results":{"BenchmarkSimRunPAD":{"ns_op":%.0f}}}}`, nsOp)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWithinLimit(t *testing.T) {
	base := writeBaseline(t, 1500000) // measured 1575895: ~1.05x, passes at 2x
	var report strings.Builder
	err := run(strings.NewReader(benchOutput), base,
		[]string{"BenchmarkSimRunPAD"}, nil, nil, 2.0, &report)
	if err != nil {
		t.Fatalf("within-limit run failed: %v\n%s", err, report.String())
	}
	if !strings.Contains(report.String(), "BenchmarkSimRunPAD") {
		t.Fatalf("report missing benchmark line:\n%s", report.String())
	}
}

func TestRunRegression(t *testing.T) {
	base := writeBaseline(t, 500000) // measured 1575895: ~3.15x, fails at 2x
	var report strings.Builder
	err := run(strings.NewReader(benchOutput), base,
		[]string{"BenchmarkSimRunPAD"}, nil, nil, 2.0, &report)
	if err == nil {
		t.Fatalf("3x regression passed the 2x gate\n%s", report.String())
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRunMissingBenchmark(t *testing.T) {
	base := writeBaseline(t, 1500000)
	var report strings.Builder
	if err := run(strings.NewReader(benchOutput), base,
		[]string{"BenchmarkNoSuch"}, nil, nil, 2.0, &report); err == nil {
		t.Fatal("unknown gate benchmark did not error")
	}
	if err := run(strings.NewReader("PASS\n"), base,
		[]string{"BenchmarkSimRunPAD"}, nil, nil, 2.0, &report); err == nil {
		t.Fatal("empty bench output did not error")
	}
}

func TestRunZeroAllocsGate(t *testing.T) {
	base := writeBaseline(t, 1500000)
	var report strings.Builder
	// 0 allocs/op passes.
	if err := run(strings.NewReader(benchOutput), base,
		nil, []string{"BenchmarkStepperTick"}, nil, 2.0, &report); err != nil {
		t.Fatalf("zero-alloc benchmark failed the gate: %v", err)
	}
	if !strings.Contains(report.String(), "0 allocs/op (limit 0)") {
		t.Fatalf("report missing allocs line:\n%s", report.String())
	}
	// A benchmark that allocates fails, with no ratio tolerance.
	err := run(strings.NewReader(benchOutput), base,
		nil, []string{"BenchmarkSimRunPAD"}, nil, 2.0, &report)
	if err == nil || !strings.Contains(err.Error(), "allocates") {
		t.Fatalf("allocating benchmark passed the zero-allocs gate: %v", err)
	}
	// A line without -benchmem columns is a hard error, not a pass.
	if err := run(strings.NewReader(benchOutput), base,
		nil, []string{"BenchmarkNoMem"}, nil, 2.0, &report); err == nil ||
		!strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("missing allocs column not diagnosed: %v", err)
	}
}

func TestRunSpeedupGate(t *testing.T) {
	base := writeBaseline(t, 1500000)
	var report strings.Builder
	// Conv (1302350) vs StepperTick (3819): ~341x, passes a 5x floor.
	ok := []speedupSpec{{slow: "BenchmarkSimRunConv", fast: "BenchmarkStepperTick", min: 5}}
	if err := run(strings.NewReader(benchOutput), base, nil, nil, ok, 2.0, &report); err != nil {
		t.Fatalf("341x speedup failed a 5x floor: %v", err)
	}
	if !strings.Contains(report.String(), "speedup") {
		t.Fatalf("report missing speedup line:\n%s", report.String())
	}
	// PAD vs Conv is ~1.2x: fails a 5x floor.
	bad := []speedupSpec{{slow: "BenchmarkSimRunPAD", fast: "BenchmarkSimRunConv", min: 5}}
	err := run(strings.NewReader(benchOutput), base, nil, nil, bad, 2.0, &report)
	if err == nil || !strings.Contains(err.Error(), "faster") {
		t.Fatalf("1.2x speedup passed a 5x floor: %v", err)
	}
	// A missing benchmark is a hard error, not a pass.
	missing := []speedupSpec{{slow: "BenchmarkNoSuch", fast: "BenchmarkSimRunConv", min: 5}}
	if err := run(strings.NewReader(benchOutput), base, nil, nil, missing, 2.0, &report); err == nil {
		t.Fatal("unknown speedup benchmark did not error")
	}
}

func TestParseSpeedups(t *testing.T) {
	got, err := parseSpeedups("BenchmarkA/BenchmarkB:5, BenchmarkC/BenchmarkD:1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].slow != "BenchmarkA" || got[0].fast != "BenchmarkB" ||
		got[0].min != 5 || got[1].min != 1.5 {
		t.Fatalf("parseSpeedups = %+v", got)
	}
	if out, err := parseSpeedups(""); err != nil || out != nil {
		t.Fatalf("empty spec = %v, %v", out, err)
	}
	for _, bad := range []string{"BenchmarkA:5", "BenchmarkA/BenchmarkB", "A/B:0", "A/B:x", "/B:5"} {
		if _, err := parseSpeedups(bad); err == nil {
			t.Fatalf("parseSpeedups(%q) did not error", bad)
		}
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Fatalf("empty list = %v", got)
	}
	got := splitList("a, b,,c")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("splitList = %v", got)
	}
}

func TestWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	orig := `{
  "description": "kept",
  "before": {"commit": "old before", "results": {
    "BenchmarkSimRunPAD": {"ns_op": 9, "bytes_op": 9, "allocs_op": 9},
    "BenchmarkUntouched": {"ns_op": 7, "bytes_op": 7, "allocs_op": 7}}},
  "after": {"commit": "old after", "results": {
    "BenchmarkSimRunPAD": {"ns_op": 1600000, "bytes_op": 10016, "allocs_op": 74},
    "BenchmarkUntouched": {"ns_op": 8, "bytes_op": 8, "allocs_op": 8}}},
  "summary": "kept -> too & <more>"
}`
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	out := "BenchmarkSimRunPAD-4 \t 30 \t 1575895 ns/op \t 12368 B/op \t 193 allocs/op\n" +
		"BenchmarkStepperTick \t 200 \t 3819.5 ns/op \t 0 B/op \t 0 allocs/op \t 731922 samples/sec\n"
	if err := write(strings.NewReader(out), path, "parent", "change"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type row map[string]float64
	type section struct {
		Commit  string         `json:"commit"`
		Results map[string]row `json:"results"`
	}
	var got struct {
		Description, Summary string
		Before, After        section
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("rewritten file does not parse: %v\n%s", err, raw)
	}
	if got.Description != "kept" || got.Summary != "kept -> too & <more>" {
		t.Errorf("other fields changed: %+v", got)
	}
	if got.Before.Commit != "parent" || got.After.Commit != "change" {
		t.Errorf("labels = %q, %q", got.Before.Commit, got.After.Commit)
	}
	want := map[string]row{
		// The old after row moved to before; the new measurement is after.
		"before/BenchmarkSimRunPAD": {"ns_op": 1600000, "bytes_op": 10016, "allocs_op": 74},
		"after/BenchmarkSimRunPAD":  {"ns_op": 1575895, "bytes_op": 12368, "allocs_op": 193},
		// A benchmark new to the file gains an after row, custom metrics
		// included, and no before row.
		"after/BenchmarkStepperTick": {"ns_op": 3819.5, "bytes_op": 0, "allocs_op": 0, "samples_per_sec": 731922},
		// Rows absent from the input stay as they were.
		"before/BenchmarkUntouched": {"ns_op": 7, "bytes_op": 7, "allocs_op": 7},
		"after/BenchmarkUntouched":  {"ns_op": 8, "bytes_op": 8, "allocs_op": 8},
	}
	for key, w := range want {
		sec, name, _ := strings.Cut(key, "/")
		res := got.After.Results
		if sec == "before" {
			res = got.Before.Results
		}
		if g := res[name]; fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s = %v, want %v", key, g, w)
		}
	}
	if _, ok := got.Before.Results["BenchmarkStepperTick"]; ok {
		t.Error("a benchmark with no old after row gained a before row")
	}
	// Key order survives the rewrite: the file still opens with its
	// description and ends with its summary.
	if s := string(raw); !strings.HasPrefix(s, "{\n  \"description\"") ||
		strings.Index(s, "\"before\"") > strings.Index(s, "\"after\"") ||
		!strings.HasSuffix(s, "\"summary\": \"kept -> too & <more>\"\n}\n") {
		t.Errorf("key order not preserved:\n%s", s)
	}

	// The rewritten file is a valid baseline for the gate.
	var report strings.Builder
	if err := run(strings.NewReader(benchOutput), path,
		[]string{"BenchmarkSimRunPAD"}, nil, nil, 2.0, &report); err != nil {
		t.Fatalf("gate on rewritten file: %v", err)
	}
}

func TestWriteRejects(t *testing.T) {
	path := writeBaseline(t, 1500000)
	if err := write(strings.NewReader(benchOutput), path, "", "change"); err == nil {
		t.Error("missing -before-label accepted")
	}
	if err := write(strings.NewReader("PASS\n"), path, "parent", "change"); err == nil {
		t.Error("input without benchmark lines accepted")
	}
	// BenchmarkNoMem has no -benchmem columns: its row would lose B/op
	// and allocs/op, so the whole write is refused.
	if err := write(strings.NewReader(benchOutput), path, "parent", "change"); err == nil ||
		!strings.Contains(err.Error(), "-benchmem") {
		t.Errorf("output without -benchmem columns: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "1500000") || strings.Contains(string(raw), "parent") {
		t.Errorf("refused write modified the file:\n%s", raw)
	}
}
