// Command padtop is a polling terminal dashboard for a live padd
// daemon — top(1) for a PAD fleet. Each frame renders the /v1/fleet
// rollup (session count, security-level distribution, breaker-margin
// percentiles, detection latencies, the fleet's ingest rate) and a
// top-N session table sorted hottest first (security level descending,
// breaker margin ascending), with a per-session sparkline fetched from
// the series endpoint. Plain text and ANSI clear only — no curses, so
// it works over ssh, in CI logs (-once) and under watch(1).
//
// Usage:
//
//	padtop -addr http://localhost:8484
//	padtop -addr http://localhost:8484 -once          # one frame, no clearing
//	padtop -metric margin_watts -top 20 -interval 1s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/padd"
	"repro/internal/version"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8484", "padd base URL")
		interval = flag.Duration("interval", 2*time.Second, "poll interval")
		once     = flag.Bool("once", false, "render one frame and exit (no screen clearing)")
		topN     = flag.Int("top", 10, "sessions shown in the table")
		metric   = flag.String("metric", "soc", "sparkline metric: soc, level, shed_watts, margin_watts or queue_depth")
		showVer  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("padtop", version.String())
		return
	}
	ok := false
	for _, m := range padd.SeriesMetrics {
		ok = ok || m == *metric
	}
	if !ok {
		fatal(fmt.Errorf("padtop: -metric %q: want one of %s", *metric, strings.Join(padd.SeriesMetrics, ", ")))
	}
	if *topN < 1 {
		fatal(fmt.Errorf("padtop: -top must be >= 1"))
	}

	top := &padtop{
		base:   strings.TrimRight(*addr, "/"),
		client: &http.Client{Timeout: 10 * time.Second},
		metric: *metric,
		topN:   *topN,
	}
	for {
		frame, err := top.frame()
		if err != nil {
			fatal(err)
		}
		if !*once {
			// Home + clear-to-end: repaint in place without scrollback spam.
			fmt.Print("\x1b[H\x1b[2J")
		}
		os.Stdout.WriteString(frame)
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

type padtop struct {
	base   string
	client *http.Client
	metric string
	topN   int

	// Previous poll's accepted-sample counter, the delta behind the
	// ingest rate ("-" on the first frame).
	prevSamples int64
	prevAt      time.Time
}

func (p *padtop) getJSON(path string, v any) error {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("padtop: GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// frame renders one full dashboard frame.
func (p *padtop) frame() (string, error) {
	var fs padd.FleetStatus
	if err := p.getJSON("/v1/fleet", &fs); err != nil {
		return "", err
	}
	var list struct {
		Sessions []padd.SessionStatus `json:"sessions"`
	}
	if err := p.getJSON("/v1/sessions", &list); err != nil {
		return "", err
	}

	now := time.Now()
	var b strings.Builder
	fmt.Fprintf(&b, "padd fleet @ %s  %s\n\n", p.base, now.Format("15:04:05"))

	// Fleet summary.
	fmt.Fprintf(&b, "sessions  %d resident, %d under attack\n", fs.Sessions, fs.SessionsUnderAttack)
	levels := make([]string, 0, len(fs.LevelSessions))
	for l, n := range fs.LevelSessions {
		levels = append(levels, fmt.Sprintf("L%d:%d", l, n))
	}
	fmt.Fprintf(&b, "levels    %s\n", strings.Join(levels, "  "))
	fmt.Fprintf(&b, "margin    p50 %s  p99 %s\n",
		padd.OccupancyQuantile(fs.MarginBoundsWatts, fs.MarginSessions, 0.50, "W"),
		padd.OccupancyQuantile(fs.MarginBoundsWatts, fs.MarginSessions, 0.99, "W"))
	fmt.Fprintf(&b, "detect    %d onsets, flag p50 %s (n=%d), shed p50 %s (n=%d)\n",
		fs.DetectionOnsets,
		histQuantile(fs.DetectionLatency, 0.50, "s"), fs.DetectionLatency.Count,
		histQuantile(fs.ShedLatency, 0.50, "s"), fs.ShedLatency.Count)
	fmt.Fprintf(&b, "ingest    %d json frames, %d streams, rate %s\n\n",
		fs.IngestFramesJSON, fs.StreamConnections, p.ingestRate(fs, now))

	// Top-N table, hottest sessions first: level descending, then
	// breaker margin ascending (least headroom first), then ID.
	sort.Slice(list.Sessions, func(i, j int) bool {
		a, c := &list.Sessions[i], &list.Sessions[j]
		if a.Level != c.Level {
			return a.Level > c.Level
		}
		if a.BreakerMargin != c.BreakerMargin {
			return a.BreakerMargin < c.BreakerMargin
		}
		return a.ID < c.ID
	})
	n := min(p.topN, len(list.Sessions))
	fmt.Fprintf(&b, "top %d of %d sessions (level desc, margin asc):\n", n, len(list.Sessions))
	fmt.Fprintf(&b, "%-20s %-6s %3s %6s %12s %9s %5s %7s  %s\n",
		"ID", "SCHEME", "LVL", "SOC", "MARGIN(W)", "SHED(W)", "QUEUE", "AGE(s)", p.metric)
	for i := 0; i < n; i++ {
		st := &list.Sessions[i]
		age := "-"
		if st.LastTelemetryAgeSeconds >= 0 {
			age = fmt.Sprintf("%.0f", st.LastTelemetryAgeSeconds)
		}
		fmt.Fprintf(&b, "%-20s %-6s %3d %6.3f %12.0f %9.0f %5d %7s  %s\n",
			st.ID, st.Scheme, st.Level, st.MeanSOC, st.BreakerMargin, st.ShedWatts,
			st.QueueDepth, age, p.sparkline(st.ID))
	}
	return b.String(), nil
}

// ingestRate turns the fleet's accepted-sample counter into a
// samples/sec figure by differencing against the last poll.
func (p *padtop) ingestRate(fs padd.FleetStatus, now time.Time) string {
	defer func() { p.prevSamples, p.prevAt = fs.AcceptedSamples, now }()
	if p.prevAt.IsZero() {
		return "-"
	}
	delta := fs.AcceptedSamples - p.prevSamples
	dt := now.Sub(p.prevAt).Seconds()
	if dt <= 0 || delta < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f samples/s", float64(delta)/dt)
}

// sparkline fetches the session's raw-resolution series for the chosen
// metric and renders each bucket's last value on an eight-level ramp,
// normalized to the window's own min..max. Sessions with recording
// disabled (or any fetch error) render as "-".
func (p *padtop) sparkline(id string) string {
	var sr padd.SeriesResponse
	if err := p.getJSON("/v1/sessions/"+id+"/series?metric="+p.metric+"&res=raw", &sr); err != nil {
		return "-"
	}
	if len(sr.Buckets) == 0 {
		return "-"
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, bk := range sr.Buckets {
		lo, hi = math.Min(lo, bk.Last), math.Max(hi, bk.Last)
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	out := make([]rune, len(sr.Buckets))
	for i, bk := range sr.Buckets {
		j := 0
		if hi > lo {
			j = int((bk.Last - lo) / (hi - lo) * float64(len(ramp)-1))
		}
		out[i] = ramp[j]
	}
	return string(out)
}

// histQuantile is padd.OccupancyQuantile for the JSON histogram shape.
func histQuantile(h padd.HistogramStatus, q float64, unit string) string {
	return padd.OccupancyQuantile(h.BoundsSeconds, h.Counts, q, unit)
}
