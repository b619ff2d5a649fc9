// Command benchcheck gates CI on engine benchmark regressions: it parses
// `go test -bench` output, looks up each gated benchmark's checked-in
// baseline in BENCH_engine.json (the "after" section), and fails when
// measured ns/op exceeds baseline × max-ratio.
//
// The default ratio of 2 is deliberately loose — CI boxes are shared and
// differ from the baseline machine, so the gate exists to catch
// order-of-magnitude regressions (an accidentally quadratic loop, a lost
// cache) rather than to benchmark precisely. Tighten locally with
// -max-ratio when comparing like for like.
//
// -zero-allocs names benchmarks that must report exactly 0 allocs/op —
// an absolute invariant (the engine's allocation-free hot loop), immune
// to machine noise, so unlike the ns/op gate it has no tolerance. The
// bench run must include -benchmem for the allocs column to exist.
//
// -speedup asserts a measured ratio between two benchmarks from the same
// run: "Slow/Fast:5" fails unless Slow's ns/op is at least 5× Fast's.
// Both numbers come from the same machine and the same bench invocation,
// so unlike the baseline gate this is noise-immune — it guards
// structural speedups (the quiescent skip path must beat per-tick
// stepping on a quiet horizon) rather than absolute timings.
//
// -write turns the gate around: instead of checking the output against
// the baseline file, it rewrites the file from the output. For every
// benchmark the output measures, the file's old "after" row moves to
// "before" and the new ns/op, B/op, allocs/op (and any custom metric
// columns) become the "after" row; the sections' "commit" labels become
// -before-label and -after-label. Rows the output does not mention, and
// every other field, stay as they are. Run it once on the parent
// commit's output and once on the change's, from the same machine, and
// the file holds a like-for-like before/after pair. A benchmark repeated
// with -count N is recorded (and gated) as the median of its N lines.
//
// Usage:
//
//	go test ./internal/sim -run '^$' -bench 'BenchmarkSimRunPAD|BenchmarkStepperTick' \
//	  -benchmem -benchtime=10x | \
//	  benchcheck -baseline BENCH_engine.json -gate BenchmarkSimRunPAD \
//	    -zero-allocs BenchmarkStepperTick \
//	    -speedup BenchmarkSimRunQuiet/BenchmarkSimRunQuietSkip:5
//
//	go test ./internal/sim -run '^$' -bench 'BenchmarkSimRun' -benchmem | \
//	  benchcheck -baseline BENCH_engine.json -write \
//	    -before-label "abc1234 (parent)" -after-label "def5678 (change)"
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

type baselineFile struct {
	After struct {
		Results map[string]struct {
			NsOp float64 `json:"ns_op"`
		} `json:"results"`
	} `json:"after"`
}

// measurement is one benchmark's parsed metrics. allocsOp is only
// meaningful when hasAllocs is set (the run included -benchmem); across
// repeats it is the most any run reported, since the zero-allocs gate
// holds every run to 0, while nsOp and columns are medians.
type measurement struct {
	nsOp      float64
	allocsOp  float64
	hasAllocs bool
	columns   []column // every metric column, in line order
}

// column is one "<value> <unit>" metric pair of a benchmark line.
type column struct {
	value float64
	unit  string
}

// newMeasurement picks the gated metrics out of a line's columns; ok is
// false for a line without ns/op.
func newMeasurement(columns []column) (m measurement, ok bool) {
	m.columns = columns
	for _, c := range columns {
		switch c.unit {
		case "ns/op":
			m.nsOp, ok = c.value, true
		case "allocs/op":
			m.allocsOp, m.hasAllocs = c.value, true
		}
	}
	return m, ok
}

// parseBench extracts name → metrics from `go test -bench` output. The
// GOMAXPROCS suffix (BenchmarkFoo-8) is stripped so names match the
// baseline file's keys. A benchmark repeated with -count N yields the
// median of its N lines, column by column, which damps one noisy run.
func parseBench(r io.Reader) (map[string]measurement, error) {
	runs := map[string][]measurement{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Metric columns are "<value> <unit>" pairs after the iteration
		// count.
		var columns []column
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			columns = append(columns, column{value: v, unit: fields[i+1]})
		}
		m, ok := newMeasurement(columns)
		if !ok {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		runs[name] = append(runs[name], m)
	}
	out := make(map[string]measurement, len(runs))
	for name, ms := range runs {
		out[name] = median(ms)
	}
	return out, sc.Err()
}

// median folds repeated lines of one benchmark into one measurement:
// each of the first line's columns takes the median of that unit's
// values across the lines (the mean of the middle two for an even
// count).
func median(ms []measurement) measurement {
	if len(ms) == 1 {
		return ms[0]
	}
	columns := make([]column, len(ms[0].columns))
	for i, c := range ms[0].columns {
		var vals []float64
		for _, m := range ms {
			for _, mc := range m.columns {
				if mc.unit == c.unit {
					vals = append(vals, mc.value)
				}
			}
		}
		sort.Float64s(vals)
		v := vals[len(vals)/2]
		if len(vals)%2 == 0 {
			v = (vals[len(vals)/2-1] + v) / 2
		}
		columns[i] = column{value: v, unit: c.unit}
	}
	m, _ := newMeasurement(columns)
	for _, r := range ms {
		m.allocsOp = max(m.allocsOp, r.allocsOp)
	}
	return m
}

// speedupSpec is one parsed -speedup assertion: the slow benchmark's
// measured ns/op must be at least min × the fast one's.
type speedupSpec struct {
	slow, fast string
	min        float64
}

// parseSpeedups parses the comma-separated "Slow/Fast:min" specs.
func parseSpeedups(s string) ([]speedupSpec, error) {
	var out []speedupSpec
	for _, f := range splitList(s) {
		names, minStr, ok := strings.Cut(f, ":")
		if !ok {
			return nil, fmt.Errorf("benchcheck: -speedup %q: want Slow/Fast:min", f)
		}
		slow, fast, ok := strings.Cut(names, "/")
		if !ok || slow == "" || fast == "" {
			return nil, fmt.Errorf("benchcheck: -speedup %q: want Slow/Fast:min", f)
		}
		min, err := strconv.ParseFloat(minStr, 64)
		if err != nil || min <= 0 {
			return nil, fmt.Errorf("benchcheck: -speedup %q: bad minimum ratio %q", f, minStr)
		}
		out = append(out, speedupSpec{slow: slow, fast: fast, min: min})
	}
	return out, nil
}

func run(benchOut io.Reader, baselinePath string, gates, zeroAllocs []string, speedups []speedupSpec, maxRatio float64, report io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("benchcheck: parsing %s: %w", baselinePath, err)
	}
	measured, err := parseBench(benchOut)
	if err != nil {
		return err
	}
	var failures []string
	for _, name := range gates {
		want, ok := base.After.Results[name]
		if !ok || want.NsOp <= 0 {
			return fmt.Errorf("benchcheck: no baseline ns_op for %s in %s", name, baselinePath)
		}
		got, ok := measured[name]
		if !ok {
			return fmt.Errorf("benchcheck: %s missing from bench output", name)
		}
		ratio := got.nsOp / want.NsOp
		fmt.Fprintf(report, "benchcheck: %s: %.0f ns/op vs baseline %.0f (%.2fx, limit %.2fx)\n",
			name, got.nsOp, want.NsOp, ratio, maxRatio)
		if ratio > maxRatio {
			failures = append(failures,
				fmt.Sprintf("%s regressed %.2fx over baseline (limit %.2fx)", name, ratio, maxRatio))
		}
	}
	for _, name := range zeroAllocs {
		got, ok := measured[name]
		if !ok {
			return fmt.Errorf("benchcheck: %s missing from bench output", name)
		}
		if !got.hasAllocs {
			return fmt.Errorf("benchcheck: %s has no allocs/op column (run go test with -benchmem)", name)
		}
		fmt.Fprintf(report, "benchcheck: %s: %g allocs/op (limit 0)\n", name, got.allocsOp)
		if got.allocsOp != 0 {
			failures = append(failures,
				fmt.Sprintf("%s allocates (%g allocs/op, want 0)", name, got.allocsOp))
		}
	}
	for _, sp := range speedups {
		slow, ok := measured[sp.slow]
		if !ok {
			return fmt.Errorf("benchcheck: %s missing from bench output", sp.slow)
		}
		fast, ok := measured[sp.fast]
		if !ok {
			return fmt.Errorf("benchcheck: %s missing from bench output", sp.fast)
		}
		if fast.nsOp <= 0 {
			return fmt.Errorf("benchcheck: %s measured 0 ns/op", sp.fast)
		}
		ratio := slow.nsOp / fast.nsOp
		fmt.Fprintf(report, "benchcheck: %s vs %s: %.1fx speedup (floor %.1fx)\n",
			sp.slow, sp.fast, ratio, sp.min)
		if ratio < sp.min {
			failures = append(failures,
				fmt.Sprintf("%s is only %.2fx faster than %s (floor %.2fx)",
					sp.fast, ratio, sp.slow, sp.min))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchcheck: %s", strings.Join(failures, "; "))
	}
	return nil
}

// object is a JSON object that keeps its keys in file order, so a
// rewrite of a BENCH file moves only the values it means to.
type object struct {
	keys []string
	vals map[string]json.RawMessage
}

func (o *object) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return fmt.Errorf("benchcheck: want a JSON object, got %.20q", data)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return err
		}
		o.set(tok.(string), v)
	}
	_, err := dec.Token()
	return err
}

func (o object) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range o.keys {
		if i > 0 {
			b.WriteByte(',')
		}
		key, err := marshal(k, "")
		if err != nil {
			return nil, err
		}
		b.Write(key)
		b.WriteByte(':')
		b.Write(o.vals[k])
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// marshal encodes v like json.Marshal (json.MarshalIndent when indent is
// set) but leaves <, > and & unescaped, so prose fields such as "a -> b"
// survive a rewrite byte for byte.
func marshal(v any, indent string) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n")), nil
}

// set stores v under key, appending key if it is new.
func (o *object) set(key string, v json.RawMessage) {
	if o.vals == nil {
		o.vals = map[string]json.RawMessage{}
	}
	if _, ok := o.vals[key]; !ok {
		o.keys = append(o.keys, key)
	}
	o.vals[key] = v
}

// child decodes the object stored under key; a missing key yields an
// empty object.
func (o *object) child(key string) (*object, error) {
	c := &object{}
	if raw, ok := o.vals[key]; ok {
		if err := json.Unmarshal(raw, c); err != nil {
			return nil, fmt.Errorf("benchcheck: %q: %w", key, err)
		}
	}
	return c, nil
}

// setChild stores c under key.
func (o *object) setChild(key string, c *object) error {
	raw, err := marshal(c, "")
	if err != nil {
		return err
	}
	o.set(key, raw)
	return nil
}

// rowKey names a metric unit in a BENCH file row: the three -benchmem
// columns keep their established names, and a custom unit such as
// samples/sec becomes samples_per_sec.
func rowKey(unit string) string {
	switch unit {
	case "ns/op":
		return "ns_op"
	case "B/op":
		return "bytes_op"
	case "allocs/op":
		return "allocs_op"
	}
	return strings.ReplaceAll(unit, "/", "_per_")
}

// row renders a measurement as a BENCH file row.
func (m measurement) row() (json.RawMessage, error) {
	var r object
	for _, c := range m.columns {
		r.set(rowKey(c.unit), json.RawMessage(strconv.FormatFloat(c.value, 'f', -1, 64)))
	}
	return marshal(r, "")
}

// section returns the BENCH file's section under key and its results.
func section(file *object, key string) (sec, rows *object, err error) {
	if sec, err = file.child(key); err != nil {
		return nil, nil, err
	}
	if rows, err = sec.child("results"); err != nil {
		return nil, nil, err
	}
	return sec, rows, nil
}

// putSection stores a section back under key with its label and results.
func putSection(file *object, key string, sec *object, label string, rows *object) error {
	l, err := marshal(label, "")
	if err != nil {
		return err
	}
	sec.set("commit", l)
	if err := sec.setChild("results", rows); err != nil {
		return err
	}
	return file.setChild(key, sec)
}

// write rewrites the BENCH file at path from bench output: for each
// measured benchmark the old after row moves to before and the new
// measurement becomes after, and the sections take the given labels.
// Rows the output does not measure stay as they are.
func write(benchOut io.Reader, path, beforeLabel, afterLabel string) error {
	if beforeLabel == "" || afterLabel == "" {
		return fmt.Errorf("benchcheck: -write needs -before-label and -after-label")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file object
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("benchcheck: parsing %s: %w", path, err)
	}
	measured, err := parseBench(benchOut)
	if err != nil {
		return err
	}
	if len(measured) == 0 {
		return fmt.Errorf("benchcheck: no benchmark lines in the input")
	}
	names := make([]string, 0, len(measured))
	for name, m := range measured {
		if !m.hasAllocs {
			return fmt.Errorf("benchcheck: %s has no allocs/op column (run go test with -benchmem)", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	before, beforeRows, err := section(&file, "before")
	if err != nil {
		return err
	}
	after, afterRows, err := section(&file, "after")
	if err != nil {
		return err
	}
	for _, name := range names {
		if old, ok := afterRows.vals[name]; ok {
			beforeRows.set(name, old)
		}
		r, err := measured[name].row()
		if err != nil {
			return err
		}
		afterRows.set(name, r)
	}
	if err := putSection(&file, "before", before, beforeLabel, beforeRows); err != nil {
		return err
	}
	if err := putSection(&file, "after", after, afterLabel, afterRows); err != nil {
		return err
	}
	out, err := marshal(file, "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// splitList splits a comma-separated flag value, yielding nil for the
// empty string.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func main() {
	baseline := flag.String("baseline", "BENCH_engine.json", "baseline JSON file (after.results is the reference)")
	gate := flag.String("gate", "BenchmarkSimRunPAD", "comma-separated benchmarks to gate")
	zeroAllocs := flag.String("zero-allocs", "", "comma-separated benchmarks that must report exactly 0 allocs/op (needs -benchmem output)")
	speedup := flag.String("speedup", "", "comma-separated Slow/Fast:min assertions on measured ns/op ratios from this run")
	maxRatio := flag.Float64("max-ratio", 2.0, "fail when measured ns/op exceeds baseline by this factor")
	input := flag.String("input", "-", "bench output file, - for stdin")
	writeMode := flag.Bool("write", false, "rewrite -baseline from the bench output (after rows move to before) instead of gating")
	beforeLabel := flag.String("before-label", "", "with -write: the before section's commit label")
	afterLabel := flag.String("after-label", "", "with -write: the after section's commit label")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if *writeMode {
		if err := write(in, *baseline, *beforeLabel, *afterLabel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	speedups, err := parseSpeedups(*speedup)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := run(in, *baseline, splitList(*gate), splitList(*zeroAllocs), speedups, *maxRatio, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
