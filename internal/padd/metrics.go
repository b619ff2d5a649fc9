package padd

import (
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/padd/wire"
)

// latencyBounds are the tick-latency histogram bucket upper bounds in
// seconds. A 22×10 cluster steps in single-digit microseconds, so the
// buckets start fine and stretch to cover a loaded box.
var latencyBounds = [numLatencyBounds]float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 1,
}

const numLatencyBounds = 15

// latencyHist is a fixed-bucket histogram of tick latencies. It is
// written by the session goroutine under the session's snapshot lock
// and copied out whole for scraping.
type latencyHist struct {
	counts [numLatencyBounds + 1]uint64 // +Inf bucket last
	sum    float64
	total  uint64
}

func (h *latencyHist) observe(d time.Duration) {
	s := d.Seconds()
	h.sum += s
	h.total++
	for i, b := range latencyBounds {
		if s <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(latencyBounds)]++
}

// batchBounds are the ingest batch-size histogram bucket upper bounds
// (samples per accepted batch). Powers of two from a single sample up
// to the largest burst a frame record can reasonably carry.
var batchBounds = [numBatchBounds]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

const numBatchBounds = 11

// batchHist is a lock-free fixed-bucket histogram of accepted ingest
// batch sizes, written by Session.EnqueueFlat from every ingest path
// concurrently; its sum is FleetStatus.AcceptedSamples. Buckets are
// independent atomics — a scrape may be torn across a single observe,
// which Prometheus histograms tolerate by design.
type batchHist struct {
	counts [numBatchBounds + 1]atomic.Uint64 // +Inf bucket last
	sum    atomic.Uint64
	total  atomic.Uint64
}

func (h *batchHist) observe(samples int) {
	h.sum.Add(uint64(samples))
	h.total.Add(1)
	for i, b := range batchBounds {
		if float64(samples) <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[numBatchBounds].Add(1)
}

// noteFrame counts one JSON telemetry POST; stream frames are counted
// by ack result in noteStreamFrame.
func (m *Manager) noteFrame() { m.framesJSON.Add(1) }

// numAckStatuses sizes the per-result stream frame counters
// (wire.AckOK through wire.AckMalformed).
const numAckStatuses = wire.AckMalformed + 1

// gcPauseBounds are the padd_go_gc_pauses histogram bucket upper bounds
// in seconds; Go stop-the-world pauses sit well under a millisecond on
// a healthy box, so the tail buckets are the alarm zone.
var gcPauseBounds = [numGCBounds]float64{10e-6, 50e-6, 100e-6, 500e-6, 1e-3, 5e-3, 10e-3, 50e-3, 100e-3}

const numGCBounds = 9

// gcHist is the GC-pause histogram, guarded by Manager.gcMu (pauses are
// harvested from runtime.MemStats at scrape time, never on a hot path).
type gcHist struct {
	counts [numGCBounds + 1]uint64 // +Inf bucket last
	sum    float64
	total  uint64
}

func (h *gcHist) observe(seconds float64) {
	h.sum += seconds
	h.total++
	for i, b := range gcPauseBounds {
		if seconds <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[numGCBounds]++
}

// noteStreamFrame counts one stream data frame by its ack status.
func (m *Manager) noteStreamFrame(status byte) {
	if int(status) < len(m.streamFrames) {
		m.streamFrames[status].Add(1)
	}
}

// fleetMetrics is the manager-level scrape snapshot: the fleet rollup
// plus the ingest and runtime counters only /metrics serves.
type fleetMetrics struct {
	FleetStatus
	BatchCounts    [numBatchBounds + 1]uint64
	BatchTotal     uint64
	StreamInflight int64
	StreamFrames   [numAckStatuses]int64

	// Go runtime families. Threaded through this snapshot (rather than
	// read inside the writer) so the golden test can pin the exposition
	// with synthetic values.
	Goroutines    int
	HeapBytes     uint64
	GCPauseCounts [numGCBounds + 1]uint64
	GCPauseSum    float64
	GCPauseTotal  uint64
}

func (m *Manager) fleetMetrics() fleetMetrics {
	fm := fleetMetrics{
		FleetStatus:    m.Fleet(),
		StreamInflight: m.streamInflight.Load(),
	}
	for i := range fm.BatchCounts {
		fm.BatchCounts[i] = m.batchSizes.counts[i].Load()
	}
	fm.BatchTotal = m.batchSizes.total.Load()
	for i := range fm.StreamFrames {
		fm.StreamFrames[i] = m.streamFrames[i].Load()
	}

	fm.Goroutines = runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fm.HeapBytes = ms.HeapAlloc
	m.gcMu.Lock()
	if ms.NumGC-m.lastNumGC > uint32(len(ms.PauseNs)) {
		// More cycles than the runtime's pause ring retains since the
		// last scrape; the older pauses are gone.
		m.lastNumGC = ms.NumGC - uint32(len(ms.PauseNs))
	}
	for n := m.lastNumGC; n < ms.NumGC; n++ {
		m.gcPauses.observe(float64(ms.PauseNs[n%uint32(len(ms.PauseNs))]) / 1e9)
	}
	m.lastNumGC = ms.NumGC
	fm.GCPauseCounts = m.gcPauses.counts
	fm.GCPauseSum = m.gcPauses.sum
	fm.GCPauseTotal = m.gcPauses.total
	m.gcMu.Unlock()
	return fm
}

// metricsRow is one session's scrape snapshot, paired with its ID.
type metricsRow struct {
	ID string
	M  sessionMetrics
}

// WriteMetrics renders the Prometheus text exposition for every live
// session. Hand-rolled: the container has no client library, and the
// format is lines of `name{labels} value`.
func (m *Manager) WriteMetrics(w io.Writer) {
	sessions := m.List()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID() < sessions[j].ID() })
	rows := make([]metricsRow, len(sessions))
	for i, s := range sessions {
		rows[i] = metricsRow{ID: s.ID(), M: s.metrics()}
	}
	writeSessionMetrics(w, m.fleetMetrics(), rows)
}

// writeSessionMetrics renders the exposition for the given snapshot rows
// (sorted by ID), built on the shared obs.Registry so padd and the other
// instrumented subsystems speak one format. Split from WriteMetrics so
// the byte format is testable against deterministic synthetic rows; the
// padd golden test pins it against the pre-registry output.
func writeSessionMetrics(w io.Writer, fm fleetMetrics, rows []metricsRow) {
	reg := obs.NewRegistry()
	reg.Gauge("padd_up", "Whether the daemon is serving.", "").Set("", 1)
	reg.Gauge("padd_sessions", "Number of live sessions.", "").Set("", float64(len(rows)))
	frames := reg.Counter("padd_ingest_frames_total", "Telemetry ingest requests by wire format.", "format")
	frames.Set("json", float64(fm.IngestFramesJSON))
	reg.Histogram("padd_ingest_batch_size", "Samples per accepted ingest batch.", "", batchBounds[:]).
		SetHistogram("", fm.BatchCounts[:], float64(fm.AcceptedSamples), fm.BatchTotal)
	reg.Gauge("padd_stream_connections", "Live persistent ingest stream connections.", "").
		Set("", float64(fm.StreamConnections))
	streamFrames := reg.Counter("padd_stream_frames_total", "Stream data frames by ack result.", "result")
	for status := 0; status < numAckStatuses; status++ {
		streamFrames.Set(wire.AckStatusName(byte(status)), float64(fm.StreamFrames[status]))
	}
	reg.Gauge("padd_stream_inflight_window", "Stream frames ingested but not yet acked (in-flight window occupancy).", "").
		Set("", float64(fm.StreamInflight))

	levelSessions := reg.Gauge("padd_fleet_level_sessions", "Resident sessions at each security level (0 = scheme without a policy).", "level")
	for l, n := range fm.LevelSessions {
		levelSessions.Set(strconv.Itoa(l), float64(n))
	}
	reg.Gauge("padd_fleet_sessions_under_attack", "Sessions with an open CUSUM excursion.", "").
		Set("", float64(fm.SessionsUnderAttack))
	marginDist := reg.Gauge("padd_fleet_margin_watts", "Sessions at or below each breaker-margin bound (cumulative occupancy).", "le")
	cumMargin := int64(0)
	for i, b := range marginBounds {
		cumMargin += fm.MarginSessions[i]
		marginDist.Set(strconv.FormatFloat(b, 'g', -1, 64), float64(cumMargin))
	}
	cumMargin += fm.MarginSessions[numMarginBounds]
	marginDist.Set("+Inf", float64(cumMargin))
	reg.Counter("padd_detection_onsets_total", "CUSUM excursions opened (statistic left zero).", "").
		Set("", float64(fm.DetectionOnsets))
	setHist := func(f *obs.Family, h HistogramStatus) {
		counts := make([]uint64, len(h.Counts))
		for i, c := range h.Counts {
			counts[i] = uint64(c)
		}
		f.SetHistogram("", counts, h.SumSeconds, uint64(h.Count))
	}
	setHist(reg.Histogram("padd_detection_latency_seconds", "Sim time from excursion onset to the CUSUM flag.", "", detectionBounds[:]),
		fm.DetectionLatency)
	setHist(reg.Histogram("padd_shed_latency_seconds", "Sim time from excursion onset to the first shedding tick.", "", detectionBounds[:]),
		fm.ShedLatency)
	reg.Gauge("padd_go_goroutines", "Goroutines in the daemon process.", "").
		Set("", float64(fm.Goroutines))
	reg.Gauge("padd_go_heap_bytes", "Live heap bytes (runtime.MemStats.HeapAlloc).", "").
		Set("", float64(fm.HeapBytes))
	reg.Histogram("padd_go_gc_pauses", "Stop-the-world GC pause durations in seconds.", "", gcPauseBounds[:]).
		SetHistogram("", fm.GCPauseCounts[:], fm.GCPauseSum, fm.GCPauseTotal)

	gauge := func(name, help string) *obs.Family { return reg.Gauge(name, help, "session") }
	counter := func(name, help string) *obs.Family { return reg.Counter(name, help, "session") }

	soc := gauge("padd_session_soc", "Mean rack battery state of charge in [0,1].")
	minSOC := gauge("padd_session_min_soc", "Lowest rack battery state of charge in [0,1].")
	microSOC := gauge("padd_session_micro_soc", "Mean μDEB state of charge in [0,1]; absent without μDEB hardware.")
	level := gauge("padd_session_level", "PAD security level (1=Normal, 2=MinorIncident, 3=Emergency; 0 when the scheme has none).")
	shedServers := gauge("padd_session_shed_servers", "Servers held in deep sleep on the last tick.")
	shedWatts := gauge("padd_session_shed_watts", "Demand power displaced by shedding on the last tick.")
	gridWatts := gauge("padd_session_grid_watts", "Cluster feed draw on the last tick.")
	margin := gauge("padd_session_breaker_margin_watts", "Smallest rated-minus-draw margin across untripped feeds.")
	queueDepth := gauge("padd_session_queue_depth", "Telemetry batches waiting in the ingest queue.")
	tripped := gauge("padd_session_tripped", "1 once any breaker has tripped.")
	ticks := counter("padd_session_ticks_total", "Control ticks advanced.")
	accepted := counter("padd_session_accepted_samples_total", "Telemetry samples accepted into the queue.")
	rejected := counter("padd_session_rejected_batches_total", "Telemetry batches rejected with 429 backpressure.")
	coasts := counter("padd_session_coast_ticks_total", "Wall-clock ticks advanced on stale demand (late telemetry).")
	discarded := counter("padd_session_discarded_samples_total", "Samples discarded after the session finished.")
	anomalies := counter("padd_session_anomalies_total", "Metering intervals the CUSUM detector flagged.")
	latency := reg.Histogram("padd_tick_latency_seconds", "Wall time per control tick.", "session", latencyBounds[:])

	for i := range rows {
		id, sm := rows[i].ID, &rows[i].M
		soc.Set(id, sm.MeanSOC)
		minSOC.Set(id, sm.MinSOC)
		if sm.MeanMicroSOC >= 0 {
			microSOC.Set(id, sm.MeanMicroSOC)
		}
		level.Set(id, float64(sm.Level))
		shedServers.Set(id, float64(sm.ShedServers))
		shedWatts.Set(id, float64(sm.ShedWatts))
		gridWatts.Set(id, float64(sm.TotalGrid))
		margin.Set(id, float64(sm.BreakerMargin))
		queueDepth.Set(id, float64(sm.QueueDepth))
		if sm.Tripped {
			tripped.Set(id, 1)
		} else {
			tripped.Set(id, 0)
		}
		ticks.Set(id, float64(sm.Ticks))
		accepted.Set(id, float64(sm.Accepted))
		rejected.Set(id, float64(sm.Rejected))
		coasts.Set(id, float64(sm.Coasts))
		discarded.Set(id, float64(sm.Discarded))
		anomalies.Set(id, float64(sm.Anomalies))
		latency.SetHistogram(id, sm.Hist.counts[:], sm.Hist.sum, sm.Hist.total)
	}
	reg.Write(w) //nolint:errcheck // bytes.Buffer / http writers; matches the historical best-effort scrape
}
