package padd

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRows is a deterministic scrape: two sessions, one with μDEB
// hardware and one without (pinning the absent-gauge path), with
// hand-set histogram contents so no wall clock leaks into the bytes.
func goldenRows() []metricsRow {
	a := sessionMetrics{
		Ticks:         1200,
		Now:           2 * time.Minute,
		Level:         core.Level2,
		MeanSOC:       0.8125,
		MinSOC:        0.25,
		MeanMicroSOC:  0.5,
		TotalGrid:     41250.5,
		ShedWatts:     512,
		BreakerMargin: 1234.75,
		ShedServers:   3,
		Tripped:       false,
		Coasts:        7,
		Discarded:     2,
		Anomalies:     1,
		Accepted:      4800,
		Rejected:      5,
		QueueDepth:    2,
	}

	b := sessionMetrics{
		Ticks:         50,
		Level:         0,
		MeanSOC:       1,
		MinSOC:        1,
		MeanMicroSOC:  -1, // no μDEB hardware: padd_session_micro_soc absent
		TotalGrid:     1000,
		BreakerMargin: 9000,
		Tripped:       true,
		Accepted:      50,
	}

	return []metricsRow{
		{ID: "alpha", M: a, Latency: filledHist(latencyLayout, 321250000, 3, 10, 40, 200, 800, 100, 40, 5, 1, 0, 0, 0, 0, 0, 0, 1)},
		{ID: "beta", M: b, Latency: filledHist(latencyLayout, 300000, 50)},
	}
}

// filledHist returns a histogram on lay holding the given sum (in the
// layout's integer unit) and per-bucket counts.
func filledHist(lay *histLayout, sum int64, counts ...uint64) *histogram {
	h := &histogram{layout: lay}
	h.sum.Store(sum)
	for i, c := range counts {
		h.counts[i].Store(c)
	}
	return h
}

// goldenFleet is the matching deterministic manager-level snapshot:
// JSON ingest exercised, hand-set histograms, and a live stream with
// every ack result represented.
func goldenFleet() fleetMetrics {
	return fleetMetrics{
		FleetStatus: FleetStatus{
			SessionsUnderAttack: 1,
			LevelSessions:       []int64{0, 1, 1, 0},
			MarginSessions:      []int64{0, 0, 1, 1, 0, 0, 0, 0, 0, 0},
			DetectionOnsets:     3,
			IngestFramesJSON:    40,
			StreamConnections:   2,
		},
		BatchSizes:     filledHist(batchLayout, 4850, 5, 3, 10, 20, 8, 1, 0, 0, 0, 0, 1, 0),
		Detection:      filledHist(detectionLayout, 12.5e9, 0, 0, 1, 1),
		Shed:           filledHist(detectionLayout, 6.2e9, 0, 0, 0, 1),
		GCPauses:       filledHist(gcPauseLayout, 420e3, 2, 5, 1),
		StreamInflight: 3,
		StreamFrames:   [numAckStatuses]int64{120, 4, 7, 1, 1},
		Goroutines:     17,
		HeapBytes:      4 << 20,
	}
}

// TestMetricsGolden pins the Prometheus text exposition byte-for-byte.
// The format is an interface monitoring dashboards scrape; any change to
// names, ordering, label layout or number formatting must be deliberate
// (regenerate with -update) and called out.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	writeSessionMetrics(&buf, goldenFleet(), goldenRows())

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("metrics exposition drifted from golden (regenerate with -update if deliberate):\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

// TestMetricsEmpty covers the no-session scrape: every family still
// declares itself so dashboards see the schema before the first session.
func TestMetricsEmpty(t *testing.T) {
	mgr := NewManager()
	defer mgr.Shutdown(context.Background())
	var buf bytes.Buffer
	writeSessionMetrics(&buf, fleetMetrics{FleetStatus: mgr.Fleet()}, nil)
	out := buf.String()
	for _, want := range []string{
		"padd_up 1\n", "padd_sessions 0\n",
		"padd_ingest_frames_total{format=\"json\"} 0\n",
		"# TYPE padd_ingest_batch_size histogram\n",
		"padd_stream_connections 0\n",
		"padd_stream_frames_total{result=\"ok\"} 0\n",
		"padd_stream_frames_total{result=\"backpressure\"} 0\n",
		"padd_stream_inflight_window 0\n",
		"padd_ingest_batch_size_count 0\n",
		"padd_fleet_level_sessions{level=\"0\"} 0\n",
		"padd_fleet_level_sessions{level=\"3\"} 0\n",
		"padd_fleet_sessions_under_attack 0\n",
		"padd_fleet_margin_watts{le=\"+Inf\"} 0\n",
		"padd_detection_onsets_total 0\n",
		"# TYPE padd_detection_latency_seconds histogram\n",
		"# TYPE padd_shed_latency_seconds histogram\n",
		"padd_go_goroutines 0\n",
		"padd_go_heap_bytes 0\n",
		"# TYPE padd_go_gc_pauses histogram\n",
		"# TYPE padd_session_soc gauge\n",
		"# TYPE padd_session_ticks_total counter\n",
		"# TYPE padd_tick_latency_seconds histogram\n",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("empty exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramObserve pins the bucketing: a value lands in the first
// bucket whose bound it does not exceed, or in +Inf past the last
// bound, and the sum and count keep every observation.
func TestHistogramObserve(t *testing.T) {
	h := &histogram{layout: batchLayout}
	for _, v := range []int64{0, 1, 2, 3, 1024, 1025} {
		h.observe(v)
	}
	hs := h.status()
	want := []int64{2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1}
	if !slices.Equal(hs.Counts, want) || hs.Count != 6 || hs.SumSeconds != 2055 {
		t.Fatalf("counts %v, count %d, sum %v; want %v, 6, 2055", hs.Counts, hs.Count, hs.SumSeconds, want)
	}
}

// TestScrapeWhileTicking renders /metrics while ingest and the workers
// observe into the same lock-free histograms, so the race detector sees
// them written and read at once, then checks the final scrape's counts.
func TestScrapeWhileTicking(t *testing.T) {
	const sessions, batches = 4, 40
	mgr := NewManager()
	defer mgr.Shutdown(context.Background())
	ss := make([]*Session, sessions)
	for i := range ss {
		s, err := mgr.Create(SessionConfig{ID: fmt.Sprintf("t%d", i), Scheme: "PAD", Racks: 1, ServersPerRack: 2})
		if err != nil {
			t.Fatal(err)
		}
		ss[i] = s
	}
	fed := make(chan error, 1)
	go func() {
		for b := 0; b < batches; b++ {
			for _, s := range ss {
				if err := s.Enqueue([][]float64{{0.9, 0.9}}); err != nil {
					fed <- err
					return
				}
			}
		}
		fed <- nil
	}()
	var buf bytes.Buffer
	deadline := time.Now().Add(10 * time.Second)
	for ticked := 0; ticked < sessions; {
		buf.Reset()
		mgr.WriteMetrics(&buf)
		ticked = 0
		for _, s := range ss {
			if s.metrics().Ticks == batches {
				ticked++
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sessions ticked %d times", ticked, sessions, batches)
		}
	}
	if err := <-fed; err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	mgr.WriteMetrics(&buf)
	for _, want := range []string{
		fmt.Sprintf("padd_ingest_batch_size_count %d\n", sessions*batches),
		fmt.Sprintf("padd_session_ticks_total{session=\"t%d\"} %d\n", sessions-1, batches),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("final scrape missing %q", want)
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

// TestExpositionMatchesFmt checks the append-based writer against the
// fmt verbs the exposition format is defined by (%q label values, %g
// floats, %d counts) on label values that need escaping, floats at the
// edges of %g and histogram bounds and sums in both units, over an
// exposition large enough to be flushed in several chunks.
func TestExpositionMatchesFmt(t *testing.T) {
	labels := []string{"plain", `quo"te`, `back\slash`, "new\nline", "tab\t", "µDEB", "\xff\xfe", ""}
	values := []float64{0, math.Copysign(0, -1), 1, -2.5, 0.1 + 0.2, 1e21, 1e20, 1e-5, 1e-4, 123456789,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	// Bounds either side of %g's switches to exponent form, in
	// nanoseconds printed as seconds and in plain counts.
	layouts := []*histLayout{
		newHistLayout(1e9, 1e3, 10e3, 100e3, 2.5e6, 1e9, 60e9, math.MaxInt64),
		newHistLayout(1, 1, 99999, 1e6, 1e15, math.MaxInt64),
	}
	sums := []int64{0, 1, -1, 123456789, 300e9, math.MaxInt64, math.MinInt64}
	counts := []uint64{1, 0, 3, math.MaxUint32, 7, 0, math.MaxUint32, 2}

	var got chunkWriter
	e := newExpo(&got)
	var want strings.Builder
	help := "Gauge with escapes: \\ and \"quotes\"."
	e.family("g", "gauge", help)
	fmt.Fprintf(&want, "# HELP g %s\n# TYPE g gauge\n", help)
	for i := 0; i < 800; i++ {
		for j, l := range labels {
			l = fmt.Sprintf("%03d%s", i, l)
			v := values[(i+j)%len(values)]
			e.sample("g", label("k", l), v)
			fmt.Fprintf(&want, "g{k=%q} %g\n", l, v)
		}
	}
	for li, lay := range layouts {
		name := fmt.Sprintf("h%d", li)
		e.family(name, "histogram", "Histogram.")
		fmt.Fprintf(&want, "# HELP %s Histogram.\n# TYPE %s histogram\n", name, name)
		// series renders one histogram series, labeled k=value unless
		// value is nil.
		series := func(value *string, sum int64) {
			labelSet, bucketPre, lbl := "", "", ""
			if value != nil {
				lbl = label("k", *value)
				labelSet, bucketPre = fmt.Sprintf("{k=%q}", *value), fmt.Sprintf("k=%q,", *value)
			}
			e.histogram(name, lbl, filledHist(lay, sum, counts[:len(lay.les)]...))
			cum := uint64(0)
			for i, u := range lay.upper {
				cum += counts[i]
				fmt.Fprintf(&want, "%s_bucket{%sle=%q} %d\n", name, bucketPre, fmt.Sprintf("%g", float64(u)/lay.unit), cum)
			}
			cum += counts[len(lay.upper)]
			fmt.Fprintf(&want, "%s_bucket{%sle=\"+Inf\"} %d\n", name, bucketPre, cum)
			fmt.Fprintf(&want, "%s_sum%s %g\n%s_count%s %d\n", name, labelSet, float64(sum)/lay.unit, name, labelSet, cum)
		}
		for i := range labels[:6] {
			series(&labels[i], sums[i])
		}
		series(nil, sums[6])
	}
	e.flush()
	if e.err != nil {
		t.Fatal(e.err)
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
