package padd

import (
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/padd/wire"
)

// maxBuckets bounds a histogram's buckets, the +Inf bucket included;
// the tick-latency layout fills it.
const maxBuckets = 16

// histLayout is one histogram family's buckets: ascending upper bounds
// in the integer unit its observations arrive in (nanoseconds or
// samples), the same bounds in the exposition's unit, and each bucket's
// le label, the +Inf bucket's last.
type histLayout struct {
	upper  []int64
	unit   float64 // integer units per exposition unit: 1e9 for seconds, 1 for counts
	bounds []float64
	les    []string
}

// newHistLayout builds a layout from its integer upper bounds. A bound
// divided by unit rounds once, so 10e3 ns reads as the same float as
// the literal 10e-6 s and prints as 1e-05.
func newHistLayout(unit float64, upper ...int64) *histLayout {
	if len(upper) >= maxBuckets {
		panic("padd: histogram layout has more than maxBuckets buckets")
	}
	l := &histLayout{upper: upper, unit: unit}
	for _, u := range upper {
		b := float64(u) / unit
		l.bounds = append(l.bounds, b)
		l.les = append(l.les, label("le", strconv.FormatFloat(b, 'g', -1, 64)))
	}
	l.les = append(l.les, `le="+Inf"`)
	return l
}

var (
	// latencyLayout buckets a tick's wall time in nanoseconds. A 22×10
	// cluster steps in single-digit microseconds, so the buckets start
	// fine and stretch to cover a loaded box.
	latencyLayout = newHistLayout(1e9, 10e3, 25e3, 50e3, 100e3, 250e3, 500e3,
		1e6, 2.5e6, 5e6, 10e6, 25e6, 50e6, 100e6, 250e6, 1e9)
	// batchLayout buckets the samples in an accepted ingest batch:
	// powers of two from a single sample up to the largest burst a
	// frame record can reasonably carry.
	batchLayout = newHistLayout(1, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
	// gcPauseLayout buckets stop-the-world GC pauses in nanoseconds. They
	// sit well under a millisecond on a healthy box, so the tail buckets
	// are the alarm zone.
	gcPauseLayout = newHistLayout(1e9, 10e3, 50e3, 100e3, 500e3, 1e6, 5e6, 10e6, 50e6, 100e6)
)

// histogram is padd's one fixed-bucket histogram. It is lock-free: any
// goroutine observes into it and a scrape reads it in place. The bucket
// counts and the sum are independent atomics, so a scrape may be torn
// across one observe, which Prometheus histograms tolerate by design;
// the count is the buckets' total, so _count always equals the +Inf
// bucket. The sum is kept in the layout's integer unit so concurrent
// observes never lose precision.
type histogram struct {
	layout *histLayout
	counts [maxBuckets]atomic.Uint64 // per bucket, not cumulative; +Inf last
	sum    atomic.Int64
}

// observe counts v in the first bucket whose bound it does not exceed.
func (h *histogram) observe(v int64) {
	h.sum.Add(v)
	i := 0
	for i < len(h.layout.upper) && v > h.layout.upper[i] {
		i++
	}
	h.counts[i].Add(1)
}

// status reads the histogram into its /v1/fleet JSON view.
func (h *histogram) status() HistogramStatus {
	hs := HistogramStatus{
		BoundsSeconds: h.layout.bounds,
		Counts:        make([]int64, len(h.layout.les)),
		SumSeconds:    float64(h.sum.Load()) / h.layout.unit,
	}
	for i := range hs.Counts {
		hs.Counts[i] = int64(h.counts[i].Load())
		hs.Count += hs.Counts[i]
	}
	return hs
}

// noteFrame counts one JSON telemetry POST; stream frames are counted
// by ack result in noteStreamFrame.
func (m *Manager) noteFrame() { m.framesJSON.Add(1) }

// numAckStatuses sizes the per-result stream frame counters
// (wire.AckOK through wire.AckMalformed).
const numAckStatuses = wire.AckMalformed + 1

// noteStreamFrame counts one stream data frame by its ack status.
func (m *Manager) noteStreamFrame(status byte) {
	if int(status) < len(m.streamFrames) {
		m.streamFrames[status].Add(1)
	}
}

// fleetMetrics is the manager-level scrape snapshot: the fleet rollup,
// the manager's histograms (read in place; nil renders empty), and the
// stream and Go runtime values only /metrics serves. The runtime values
// are read here rather than inside the writer so the golden test can
// pin the exposition with synthetic ones.
type fleetMetrics struct {
	FleetStatus
	BatchSizes, Detection, Shed, GCPauses *histogram

	StreamInflight int64
	StreamFrames   [numAckStatuses]int64
	Goroutines     int
	HeapBytes      uint64
}

func (m *Manager) fleetMetrics() fleetMetrics {
	fm := fleetMetrics{
		FleetStatus:    m.Fleet(),
		BatchSizes:     &m.batchSizes,
		Detection:      &m.det.detect,
		Shed:           &m.det.shed,
		GCPauses:       &m.gcPauses,
		StreamInflight: m.streamInflight.Load(),
		Goroutines:     runtime.NumGoroutine(),
	}
	for i := range fm.StreamFrames {
		fm.StreamFrames[i] = m.streamFrames[i].Load()
	}
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
		m.gcPauses.observe(int64(ms.PauseNs[n%uint32(len(ms.PauseNs))]))
	}
	m.lastNumGC = ms.NumGC
	m.gcMu.Unlock()
	return fm
}

// metricsRow is one session's scrape snapshot, paired with its ID and
// its tick-latency histogram (read in place).
type metricsRow struct {
	ID      string
	M       sessionMetrics
	Latency *histogram
}

// WriteMetrics renders the Prometheus text exposition for every live
// session.
func (m *Manager) WriteMetrics(w io.Writer) {
	sessions := m.List()
	slices.SortFunc(sessions, func(a, b *Session) int { return strings.Compare(a.id, b.id) })
	rows := make([]metricsRow, len(sessions))
	for i, s := range sessions {
		rows[i] = metricsRow{ID: s.id, M: s.metrics(), Latency: &s.latency}
	}
	writeSessionMetrics(w, m.fleetMetrics(), rows)
}

// writeSessionMetrics renders the exposition for the given snapshot
// rows, which must be sorted by ID. Families keep a fixed order; within
// one, series follow the order padd holds them in: sessions by ID,
// levels 0–3, ack results by status, margin bounds ascending with +Inf
// last. Split from WriteMetrics so the golden test can pin the bytes
// against deterministic synthetic rows. The scrape is best effort, so a
// failed write is not reported.
func writeSessionMetrics(w io.Writer, fm fleetMetrics, rows []metricsRow) {
	e := newExpo(w)
	gauge := func(name, help string, v float64) {
		e.family(name, "gauge", help)
		e.sample(name, "", v)
	}
	fleetHist := func(name, help string, lay *histLayout, h *histogram) {
		if h == nil { // a snapshot with no manager behind it
			h = &histogram{layout: lay}
		}
		e.family(name, "histogram", help)
		e.histogram(name, "", h)
	}

	gauge("padd_up", "Whether the daemon is serving.", 1)
	gauge("padd_sessions", "Number of live sessions.", float64(len(rows)))
	e.family("padd_ingest_frames_total", "counter", "Telemetry ingest requests by wire format.")
	e.sample("padd_ingest_frames_total", `format="json"`, float64(fm.IngestFramesJSON))
	fleetHist("padd_ingest_batch_size", "Samples per accepted ingest batch.", batchLayout, fm.BatchSizes)
	gauge("padd_stream_connections", "Live persistent ingest stream connections.", float64(fm.StreamConnections))
	e.family("padd_stream_frames_total", "counter", "Stream data frames by ack result.")
	for status, n := range fm.StreamFrames {
		e.sample("padd_stream_frames_total", label("result", wire.AckStatusName(byte(status))), float64(n))
	}
	gauge("padd_stream_inflight_window", "Stream frames ingested but not yet acked (in-flight window occupancy).",
		float64(fm.StreamInflight))

	e.family("padd_fleet_level_sessions", "gauge", "Resident sessions at each security level (0 = scheme without a policy).")
	for l, n := range fm.LevelSessions {
		e.sample("padd_fleet_level_sessions", label("level", strconv.Itoa(l)), float64(n))
	}
	gauge("padd_fleet_sessions_under_attack", "Sessions with an open CUSUM excursion.", float64(fm.SessionsUnderAttack))
	e.family("padd_fleet_margin_watts", "gauge", "Sessions at or below each breaker-margin bound (cumulative occupancy).")
	cum := int64(0)
	for i, n := range fm.MarginSessions {
		cum += n
		le := "+Inf"
		if i < numMarginBounds {
			le = strconv.FormatFloat(marginBounds[i], 'g', -1, 64)
		}
		e.sample("padd_fleet_margin_watts", label("le", le), float64(cum))
	}
	e.family("padd_detection_onsets_total", "counter", "CUSUM excursions opened (statistic left zero).")
	e.sample("padd_detection_onsets_total", "", float64(fm.DetectionOnsets))
	fleetHist("padd_detection_latency_seconds", "Sim time from excursion onset to the CUSUM flag.", detectionLayout, fm.Detection)
	fleetHist("padd_shed_latency_seconds", "Sim time from excursion onset to the first shedding tick.", detectionLayout, fm.Shed)
	gauge("padd_go_goroutines", "Goroutines in the daemon process.", float64(fm.Goroutines))
	gauge("padd_go_heap_bytes", "Live heap bytes (runtime.MemStats.HeapAlloc).", float64(fm.HeapBytes))
	fleetHist("padd_go_gc_pauses", "Stop-the-world GC pause durations in seconds.", gcPauseLayout, fm.GCPauses)

	// Each session's label is formatted once, into one string that every
	// per-session family slices.
	n := 0
	for i := range rows {
		n += len(`session=""`) + len(rows[i].ID)
	}
	buf := make([]byte, 0, n)
	offs := make([]int, len(rows)+1)
	for i := range rows {
		buf = appendLabel(buf, "session", rows[i].ID)
		offs[i+1] = len(buf)
	}
	labels := string(buf)
	session := func(i int) string { return labels[offs[i]:offs[i+1]] }
	perSession := func(name, kind, help string, value func(*sessionMetrics) float64) {
		e.family(name, kind, help)
		for i := range rows {
			e.sample(name, session(i), value(&rows[i].M))
		}
	}

	perSession("padd_session_soc", "gauge", "Mean rack battery state of charge in [0,1].",
		func(sm *sessionMetrics) float64 { return sm.MeanSOC })
	perSession("padd_session_min_soc", "gauge", "Lowest rack battery state of charge in [0,1].",
		func(sm *sessionMetrics) float64 { return sm.MinSOC })
	e.family("padd_session_micro_soc", "gauge", "Mean μDEB state of charge in [0,1]; absent without μDEB hardware.")
	for i := range rows {
		if v := rows[i].M.MeanMicroSOC; v >= 0 {
			e.sample("padd_session_micro_soc", session(i), v)
		}
	}
	perSession("padd_session_level", "gauge", "PAD security level (1=Normal, 2=MinorIncident, 3=Emergency; 0 when the scheme has none).",
		func(sm *sessionMetrics) float64 { return float64(sm.Level) })
	perSession("padd_session_shed_servers", "gauge", "Servers held in deep sleep on the last tick.",
		func(sm *sessionMetrics) float64 { return float64(sm.ShedServers) })
	perSession("padd_session_shed_watts", "gauge", "Demand power displaced by shedding on the last tick.",
		func(sm *sessionMetrics) float64 { return float64(sm.ShedWatts) })
	perSession("padd_session_grid_watts", "gauge", "Cluster feed draw on the last tick.",
		func(sm *sessionMetrics) float64 { return float64(sm.TotalGrid) })
	perSession("padd_session_breaker_margin_watts", "gauge", "Smallest rated-minus-draw margin across untripped feeds.",
		func(sm *sessionMetrics) float64 { return float64(sm.BreakerMargin) })
	perSession("padd_session_queue_depth", "gauge", "Telemetry batches waiting in the ingest queue.",
		func(sm *sessionMetrics) float64 { return float64(sm.QueueDepth) })
	perSession("padd_session_tripped", "gauge", "1 once any breaker has tripped.",
		func(sm *sessionMetrics) float64 {
			if sm.Tripped {
				return 1
			}
			return 0
		})
	perSession("padd_session_ticks_total", "counter", "Control ticks advanced.",
		func(sm *sessionMetrics) float64 { return float64(sm.Ticks) })
	perSession("padd_session_accepted_samples_total", "counter", "Telemetry samples accepted into the queue.",
		func(sm *sessionMetrics) float64 { return float64(sm.Accepted) })
	perSession("padd_session_rejected_batches_total", "counter", "Telemetry batches rejected with 429 backpressure.",
		func(sm *sessionMetrics) float64 { return float64(sm.Rejected) })
	perSession("padd_session_coast_ticks_total", "counter", "Wall-clock ticks advanced on stale demand (late telemetry).",
		func(sm *sessionMetrics) float64 { return float64(sm.Coasts) })
	perSession("padd_session_discarded_samples_total", "counter", "Samples discarded after the session finished.",
		func(sm *sessionMetrics) float64 { return float64(sm.Discarded) })
	perSession("padd_session_anomalies_total", "counter", "Metering intervals the CUSUM detector flagged.",
		func(sm *sessionMetrics) float64 { return float64(sm.Anomalies) })
	e.family("padd_tick_latency_seconds", "histogram", "Wall time per control tick.")
	for i := range rows {
		e.histogram("padd_tick_latency_seconds", session(i), rows[i].Latency)
	}
	e.flush()
}

// flushAt is the buffered exposition size at which the writer hands
// the text to its io.Writer.
const flushAt = 64 << 10

// expo writes the Prometheus text exposition: HELP and TYPE lines,
// sample lines, and histogram series with cumulative le buckets, _sum
// and _count. It appends with strconv into one reused buffer and hands
// the buffer to w whenever a series leaves it at flushAt bytes or more.
// A series carries at most one label, passed preformatted as
// key="value" (see label), or "" for none.
type expo struct {
	w   io.Writer
	buf []byte
	err error
}

func newExpo(w io.Writer) *expo {
	return &expo{w: w, buf: make([]byte, 0, flushAt+flushAt/8)}
}

// appendLabel appends key="value", quoting value as fmt's %q does.
func appendLabel(dst []byte, key, value string) []byte {
	dst = append(dst, key...)
	dst = append(dst, '=')
	return strconv.AppendQuote(dst, value)
}

// label formats key="value" for a series.
func label(key, value string) string {
	var b [64]byte
	return string(appendLabel(b[:0], key, value))
}

// flush hands the buffered text to w and empties the buffer; after a
// failed write, kept in err, it only empties it.
func (e *expo) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// family writes a family's HELP and TYPE lines; kind is gauge, counter
// or histogram.
func (e *expo) family(name, kind, help string) {
	e.buf = append(e.buf, "# HELP "...)
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, help...)
	e.buf = append(e.buf, "\n# TYPE "...)
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, kind...)
	e.buf = append(e.buf, '\n')
}

// head appends the start of a sample line: name, suffix, the label set
// and the separating space.
func (e *expo) head(name, suffix, label string) {
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, suffix...)
	if label != "" {
		e.buf = append(e.buf, '{')
		e.buf = append(e.buf, label...)
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, ' ')
}

// endSeries flushes once the buffer holds flushAt bytes.
func (e *expo) endSeries() {
	if len(e.buf) >= flushAt {
		e.flush()
	}
}

// sample writes one sample line.
func (e *expo) sample(name, label string, v float64) {
	e.head(name, "", label)
	e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
	e.buf = append(e.buf, '\n')
	e.endSeries()
}

// histogram writes one histogram series: a cumulative bucket line per
// bound, carrying the series' label first and le second, then _sum and
// _count.
func (e *expo) histogram(name, label string, h *histogram) {
	cum := uint64(0)
	for i, le := range h.layout.les {
		cum += h.counts[i].Load()
		e.buf = append(e.buf, name...)
		e.buf = append(e.buf, "_bucket{"...)
		if label != "" {
			e.buf = append(e.buf, label...)
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, le...)
		e.buf = append(e.buf, "} "...)
		e.buf = strconv.AppendUint(e.buf, cum, 10)
		e.buf = append(e.buf, '\n')
	}
	e.head(name, "_sum", label)
	e.buf = strconv.AppendFloat(e.buf, float64(h.sum.Load())/h.layout.unit, 'g', -1, 64)
	e.buf = append(e.buf, '\n')
	e.head(name, "_count", label)
	e.buf = strconv.AppendUint(e.buf, cum, 10)
	e.buf = append(e.buf, '\n')
	e.endSeries()
}
