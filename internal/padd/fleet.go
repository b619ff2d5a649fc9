package padd

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// numLevels sizes the fleet level distribution: level 0 (schemes
// without a security policy) plus the Figure-9 levels L1..L3.
const numLevels = 4

// marginBounds are the fleet margin-distribution bucket upper bounds in
// watts: how many sessions currently sit at or below each breaker
// margin. The low buckets are the alarm zone — a PDU-scale session
// normally idles with kilowatts of headroom.
var marginBounds = [numMarginBounds]float64{0, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000}

const numMarginBounds = 9

// marginBucket maps a breaker margin to its distribution bucket.
func marginBucket(w float64) int {
	for i, b := range marginBounds {
		if w <= b {
			return i
		}
	}
	return numMarginBounds
}

// detectionLayout buckets the detection and shed latencies in
// nanoseconds of simulated time. With the default 5s metering interval
// a single-interval detection lands at 5–10s; the tail covers slow-burn
// excursions that accumulate across many intervals.
var detectionLayout = newHistLayout(1e9, 1e9, 2.5e9, 5e9, 7.5e9, 10e9, 15e9, 30e9, 60e9, 120e9, 300e9)

// detectionStats is the manager-wide detection-latency accounting,
// shared by every worker. An "onset" is the tick the CUSUM statistic
// first leaves zero — the earliest online-observable sign of an
// anomaly; detection latency runs from that onset to the CUSUM flag,
// shed latency from the onset to the first tick shedding is engaged
// while the excursion is open. Both are simulated (tick) time, so they
// measure the defense, not the host's scheduling.
type detectionStats struct {
	onsets atomic.Int64
	detect histogram
	shed   histogram
}

// fleetRollup is the lock-cheap fleet aggregate: independent atomics
// the executing workers move as their sessions change state, so a
// scrape reads a fixed number of counters, not every session. Level and
// margin are occupancy counters (each resident session sits in exactly
// one bucket of each).
type fleetRollup struct {
	levels      [numLevels]atomic.Int64
	margin      [numMarginBounds + 1]atomic.Int64
	underAttack atomic.Int64
}

// join registers a fresh session in the rollup at its initial position.
func (r *fleetRollup) join(level, marginBucket int) {
	r.levels[level].Add(1)
	r.margin[marginBucket].Add(1)
}

// sessionSeries holds one session's observability rings: the per-tick
// engine signals a dashboard needs to see a trajectory for. Each ring
// is an obs.Series with the standard tiered geometry; the executing
// worker is the only writer, snapshot readers come and go freely.
type sessionSeries struct {
	soc    *obs.Series
	level  *obs.Series
	shed   *obs.Series
	margin *obs.Series
	queue  *obs.Series
}

func newSessionSeries(tick time.Duration) *sessionSeries {
	tiers := obs.DefaultTiers(tick)
	return &sessionSeries{
		soc:    obs.NewSeries(tiers...),
		level:  obs.NewSeries(tiers...),
		shed:   obs.NewSeries(tiers...),
		margin: obs.NewSeries(tiers...),
		queue:  obs.NewSeries(tiers...),
	}
}

// SeriesMetrics lists the metric names GET /v1/sessions/{id}/series
// accepts, in the order padtop cycles through them.
var SeriesMetrics = []string{"soc", "level", "shed_watts", "margin_watts", "queue_depth"}

// byName resolves a series endpoint metric name to its ring.
func (ss *sessionSeries) byName(metric string) *obs.Series {
	switch metric {
	case "soc":
		return ss.soc
	case "level":
		return ss.level
	case "shed_watts":
		return ss.shed
	case "margin_watts":
		return ss.margin
	case "queue_depth":
		return ss.queue
	}
	return nil
}

// SeriesResolutions maps the series endpoint's res= values to
// downsampling tiers, matching obs.DefaultTiers' geometry.
var SeriesResolutions = []string{"raw", "10s", "1m"}

// seriesTier resolves a res= value to its tier index, or -1.
func seriesTier(res string) int {
	for i, r := range SeriesResolutions {
		if r == res {
			return i
		}
	}
	return -1
}

// HistogramStatus is a latency histogram in the fleet rollup JSON:
// per-bucket (non-cumulative) counts, the final count being the
// overflow bucket past the last bound.
type HistogramStatus struct {
	BoundsSeconds []float64 `json:"bounds_seconds"`
	Counts        []int64   `json:"counts"`
	SumSeconds    float64   `json:"sum_seconds"`
	Count         int64     `json:"count"`
}

// FleetStatus is the GET /v1/fleet rollup: the whole fleet's state in
// a fixed set of counters, scraped without touching a single session
// lock. Field order is fixed by this struct — the JSON is golden-tested.
// AcceptedSamples counts every sample either ingest path has queued, so
// differencing two reads gives the fleet's ingest rate.
type FleetStatus struct {
	Sessions            int     `json:"sessions"`
	SessionsUnderAttack int64   `json:"sessions_under_attack"`
	LevelSessions       []int64 `json:"level_sessions"` // index = security level 0..3

	MarginBoundsWatts []float64 `json:"margin_bounds_watts"`
	MarginSessions    []int64   `json:"margin_sessions"` // per bound, last is overflow

	DetectionOnsets  int64           `json:"detection_onsets"`
	DetectionLatency HistogramStatus `json:"detection_latency_seconds"`
	ShedLatency      HistogramStatus `json:"shed_latency_seconds"`

	IngestFramesJSON  int64 `json:"ingest_frames_json"`
	StreamConnections int   `json:"stream_connections"`
	AcceptedSamples   int64 `json:"accepted_samples"`
}

// OccupancyQuantile reads quantile q off a bucketed distribution such
// as FleetStatus.MarginSessions: the smallest bound whose cumulative
// count covers q, printed with unit, or ">last bound" when only the
// open-ended last bucket does; "n/a" when the distribution is empty.
func OccupancyQuantile(bounds []float64, counts []int64, q float64, unit string) string {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return "n/a"
	}
	target := int64(math.Ceil(q * float64(total)))
	cum := int64(0)
	for i, n := range counts {
		cum += n
		if cum >= target {
			if i < len(bounds) {
				return fmt.Sprintf("<=%g%s", bounds[i], unit)
			}
			break
		}
	}
	return fmt.Sprintf(">%g%s", bounds[len(bounds)-1], unit)
}

// Fleet snapshots the fleet rollup, the one read of the fleet's
// counters behind both GET /v1/fleet and the fleet families of
// /metrics. Reads only the rollup's atomics and the session table —
// never a session's snapshot mutex — so it cannot stall the ingest hot
// path.
func (m *Manager) Fleet() FleetStatus {
	fs := FleetStatus{
		SessionsUnderAttack: m.rollup.underAttack.Load(),
		LevelSessions:       make([]int64, numLevels),
		MarginBoundsWatts:   marginBounds[:],
		MarginSessions:      make([]int64, numMarginBounds+1),

		DetectionOnsets:  m.det.onsets.Load(),
		DetectionLatency: m.det.detect.status(),
		ShedLatency:      m.det.shed.status(),

		IngestFramesJSON:  m.framesJSON.Load(),
		StreamConnections: m.StreamConnections(),
		AcceptedSamples:   m.batchSizes.sum.Load(),
	}
	m.mu.RLock()
	for _, s := range m.sessions {
		if s != nil {
			fs.Sessions++
		}
	}
	m.mu.RUnlock()
	for l := range fs.LevelSessions {
		fs.LevelSessions[l] = m.rollup.levels[l].Load()
	}
	for b := range fs.MarginSessions {
		fs.MarginSessions[b] = m.rollup.margin[b].Load()
	}
	return fs
}
