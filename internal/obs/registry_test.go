package obs

import (
	"bytes"
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
