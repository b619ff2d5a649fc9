package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// TestRegistryExposition pins the text format on a mix of instrument
// shapes: unlabeled gauge, labeled counter, labeled and unlabeled
// histograms. The padd golden test pins the same bytes end to end; this
// covers the shapes padd does not use.
func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("up", "Service is serving.", "").Set("", 1)
	jobs := reg.Counter("jobs_total", "Jobs processed.", "queue")
	jobs.Add("fast", 2)
	jobs.Add("fast", 1)
	jobs.Add("slow", 5)
	lat := reg.Histogram("latency_seconds", "Job latency.", "", []float64{0.1, 1})
	lat.SetHistogram("", []uint64{1, 1, 1}, 3.55, 3)

	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP up Service is serving.",
		"# TYPE up gauge",
		"up 1",
		"# HELP jobs_total Jobs processed.",
		"# TYPE jobs_total counter",
		`jobs_total{queue="fast"} 3`,
		`jobs_total{queue="slow"} 5`,
		"# HELP latency_seconds Job latency.",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_sum 3.55",
		"latency_seconds_count 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryReRegister checks idempotent declaration (same family back)
// and that a kind clash panics rather than corrupting the exposition.
func TestRegistryReRegister(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("n", "h", "")
	if b := reg.Counter("n", "h", ""); b != a {
		t.Fatal("re-registration returned a different family")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	reg.Gauge("n", "h", "")
}

// TestRegistrySetHistogram checks snapshot installation used by padd:
// non-cumulative counts render cumulatively.
func TestRegistrySetHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "help.", "s", []float64{1, 2})
	h.SetHistogram("x", []uint64{1, 2, 3}, 12.5, 6)
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`h_bucket{s="x",le="1"} 1`,
		`h_bucket{s="x",le="2"} 3`,
		`h_bucket{s="x",le="+Inf"} 6`,
		`h_sum{s="x"} 12.5`,
		`h_count{s="x"} 6`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, buf.String())
		}
	}
}

// chunkWriter records each Write call's size.
type chunkWriter struct {
	bytes.Buffer
	chunks []int
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.chunks = append(c.chunks, len(p))
	return c.Buffer.Write(p)
}

// TestRegistryWriteMatchesFmt checks the append-based writer against
// the fmt verbs the exposition format is defined by (%q label values,
// %g floats, %d counts) on label values that need escaping and floats
// at the edges of %g, over an exposition large enough to be flushed in
// several chunks.
func TestRegistryWriteMatchesFmt(t *testing.T) {
	labels := []string{"plain", `quo"te`, `back\slash`, "new\nline", "tab\t", "µDEB", "\xff\xfe", ""}
	values := []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1 + 0.2, 1e21, 1e20, 1e-5, 1e-4, 123456789,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	bounds := []float64{1e-6, 2.5e-3, 0.1, 1, 60, 1e21}

	reg := NewRegistry()
	g := reg.Gauge("g", "Gauge with escapes: \\ and \"quotes\".", "k")
	h := reg.Histogram("h", "Histogram.", "k", bounds)
	u := reg.Histogram("u", "Unlabeled histogram.", "", bounds)
	var want strings.Builder
	fmt.Fprintf(&want, "# HELP g %s\n# TYPE g gauge\n", "Gauge with escapes: \\ and \"quotes\".")
	type row struct {
		label string
		v     float64
	}
	var rows []row
	for i := 0; i < 800; i++ {
		for j, l := range labels {
			rows = append(rows, row{fmt.Sprintf("%03d%s", i, l), values[(i+j)%len(values)]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].label < rows[j].label })
	for _, r := range rows {
		g.Set(r.label, r.v)
		fmt.Fprintf(&want, "g{k=%q} %g\n", r.label, r.v)
	}
	counts := []uint64{1, 0, 3, math.MaxUint32, 7, 0, math.MaxUint32}
	hist := func(name, labelSet, bucketPre string, sum float64, total uint64) {
		cum := uint64(0)
		for i, b := range bounds {
			cum += counts[i]
			fmt.Fprintf(&want, "%s_bucket{%sle=%q} %d\n", name, bucketPre, fmt.Sprintf("%g", b), cum)
		}
		cum += counts[len(bounds)]
		fmt.Fprintf(&want, "%s_bucket{%sle=\"+Inf\"} %d\n", name, bucketPre, cum)
		fmt.Fprintf(&want, "%s_sum%s %g\n%s_count%s %d\n", name, labelSet, sum, name, labelSet, total)
	}
	want.WriteString("# HELP h Histogram.\n# TYPE h histogram\n")
	hl := append([]string(nil), labels[:6]...)
	sort.Strings(hl)
	for i, l := range hl {
		sum := values[i]
		h.SetHistogram(l, counts, sum, math.MaxUint64-uint64(i))
		lv := fmt.Sprintf("k=%q", l)
		hist("h", "{"+lv+"}", lv+",", sum, math.MaxUint64-uint64(i))
	}
	want.WriteString("# HELP u Unlabeled histogram.\n# TYPE u histogram\n")
	u.SetHistogram("", counts, 0.1+0.2, 42)
	hist("u", "", "", 0.1+0.2, 42)

	var got chunkWriter
	if err := reg.Write(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\ngot  %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
	if len(got.chunks) < 2 {
		t.Fatalf("%d-byte exposition written in %d chunk(s), want several", got.Len(), len(got.chunks))
	}
	for _, n := range got.chunks[:len(got.chunks)-1] {
		if n < flushAt {
			t.Fatalf("chunk sizes %v: a non-final chunk is under %d bytes", got.chunks, flushAt)
		}
	}
}
