package padd

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
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
	a.Hist.counts = [numLatencyBounds + 1]uint64{3, 10, 40, 200, 800, 100, 40, 5, 1, 0, 0, 0, 0, 0, 0, 1}
	a.Hist.sum = 0.32125
	a.Hist.total = 1200

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
	b.Hist.counts = [numLatencyBounds + 1]uint64{50}
	b.Hist.sum = 0.0003
	b.Hist.total = 50

	return []metricsRow{{ID: "alpha", M: a}, {ID: "beta", M: b}}
}

// goldenFleet is the matching deterministic manager-level snapshot:
// JSON ingest exercised, a hand-set batch-size histogram, and a live
// stream with every ack result represented.
func goldenFleet() fleetMetrics {
	fm := fleetMetrics{
		FleetStatus: FleetStatus{
			SessionsUnderAttack: 1,
			LevelSessions:       []int64{0, 1, 1, 0},
			MarginSessions:      []int64{0, 0, 1, 1, 0, 0, 0, 0, 0, 0},
			DetectionOnsets:     3,
			DetectionLatency:    HistogramStatus{Counts: []int64{0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0}, SumSeconds: 12.5, Count: 2},
			ShedLatency:         HistogramStatus{Counts: []int64{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, SumSeconds: 6.2, Count: 1},
			IngestFramesJSON:    40,
			StreamConnections:   2,
			AcceptedSamples:     4850,
		},
		StreamInflight: 3,
		StreamFrames:   [numAckStatuses]int64{120, 4, 7, 1, 1},
	}
	fm.BatchCounts = [numBatchBounds + 1]uint64{5, 3, 10, 20, 8, 1, 0, 0, 0, 0, 1, 0}
	fm.BatchTotal = 48
	fm.Goroutines = 17
	fm.HeapBytes = 4 << 20
	fm.GCPauseCounts = [numGCBounds + 1]uint64{2, 5, 1, 0, 0, 0, 0, 0, 0, 0}
	fm.GCPauseSum = 0.00042
	fm.GCPauseTotal = 8
	return fm
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
