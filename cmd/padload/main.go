// Command padload is the fleet load generator for padd: it creates a
// configurable number of sessions against a live daemon and drives each
// at a target samples/sec over either ingest path — persistent
// binary-acked stream connections (one per worker, each frame batching
// many sessions) or per-session JSON POSTs — while recording round-trip
// latencies (send→ack or POST) in a histogram.
//
// Usage:
//
//	padd -addr :8484 &
//	padload -addr http://localhost:8484 -sessions 1000 -rate 10 -duration 5s -mode stream
//
// A ramp profile (-ramp 30s) spreads session creation linearly across
// the window instead of front-loading it, which is how fleet churn is
// exercised. With -verify (the default) padload lists every session it
// created after the drive phase and fails unless the daemon accepted
// every acknowledged sample losslessly: zero discards and ticks
// catching up to accepted.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/padd"
	"repro/internal/padd/wire"
	"repro/internal/version"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8484", "padd base URL")
		sessions = flag.Int("sessions", 1000, "sessions to create and drive")
		rate     = flag.Float64("rate", 10, "samples per second per session")
		duration = flag.Duration("duration", 10*time.Second, "drive phase length")
		mode     = flag.String("mode", padd.ModeStream, "ingest path: stream (persistent connections with binary acks) or json (per-session POSTs)")
		batch    = flag.Int("batch", 10, "samples per session per send")
		perFrame = flag.Int("frame-sessions", 64, "sessions batched into one stream frame")
		ramp     = flag.Duration("ramp", 0, "spread session creation over this window (0 = create as fast as possible)")
		workers  = flag.Int("workers", 16, "concurrent posting goroutines")
		scheme   = flag.String("scheme", "Conv", "defense scheme for the driven sessions")
		racks    = flag.Int("racks", 1, "racks per session")
		spr      = flag.Int("servers-per-rack", 2, "servers per rack per session")
		prefix   = flag.String("prefix", "load", "session id prefix")
		keep     = flag.Bool("keep", false, "leave the sessions resident on exit (measure memory, scrape /metrics)")
		verify   = flag.Bool("verify", true, "after driving, assert lossless ingest (zero discards) across the fleet")
		verbose  = flag.Bool("v", false, "per-second progress lines")
		showVer  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("padload", version.String())
		return
	}
	if *mode != padd.ModeJSON && *mode != padd.ModeStream {
		fatal(fmt.Errorf("padload: -mode %q: want stream or json", *mode))
	}
	if *sessions < 1 || *batch < 1 || *perFrame < 1 || *workers < 1 || *rate <= 0 {
		fatal(fmt.Errorf("padload: -sessions, -batch, -frame-sessions, -workers must be >= 1 and -rate > 0"))
	}

	lg := &loadgen{
		base:     strings.TrimRight(*addr, "/"),
		mode:     *mode,
		batch:    *batch,
		perFrame: *perFrame,
		servers:  *racks * *spr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * *workers,
			MaxIdleConnsPerHost: 4 * *workers,
		}},
	}

	// Phase 1: create the fleet, optionally ramped.
	ids := make([]string, *sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%06d", *prefix, i)
	}
	t0 := time.Now()
	if err := lg.createAll(ids, *scheme, *racks, *spr, *ramp, *workers); err != nil {
		fatal(err)
	}
	created := time.Since(t0)
	fmt.Printf("padload: created %d sessions in %v (%.0f sessions/sec)\n",
		*sessions, created.Round(time.Millisecond), float64(*sessions)/created.Seconds())

	// Phase 2: drive. Each round sends -batch samples to every session,
	// paced so each session averages -rate samples/sec.
	interval := time.Duration(float64(*batch) / *rate * float64(time.Second))
	rounds := int(math.Ceil(duration.Seconds() / interval.Seconds()))
	if rounds < 1 {
		rounds = 1
	}
	t0 = time.Now()
	lg.drive(ids, rounds, interval, *workers, *verbose)
	drove := time.Since(t0)

	sent := lg.samples.Load()
	fmt.Printf("padload: %s mode: %d samples across %d sessions in %v (%.0f samples/sec), %d posts, %d backpressure retries\n",
		*mode, sent, *sessions, drove.Round(time.Millisecond),
		float64(sent)/drove.Seconds(), lg.posts.Load(), lg.retries.Load())
	lg.hist.report(os.Stdout)
	if n := lg.errors.Load(); n > 0 {
		fatal(fmt.Errorf("padload: %d posts failed hard (non-429)", n))
	}

	// Phase 3: verify lossless ingest, then clean up.
	if *verify {
		if err := lg.verify(ids, sent); err != nil {
			fatal(err)
		}
		fmt.Printf("padload: verified: every acknowledged sample ticked, zero discards\n")
	}
	// End-of-run fleet rollup: where the driven fleet landed.
	if err := lg.fleetReport(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "padload: fleet rollup unavailable: %v\n", err)
	}
	if !*keep {
		if err := lg.deleteAll(ids, *workers); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

type loadgen struct {
	base     string
	mode     string
	batch    int
	perFrame int
	servers  int
	client   *http.Client

	samples atomic.Int64
	posts   atomic.Int64
	retries atomic.Int64
	errors  atomic.Int64
	hist    rttHist
}

// createAll creates the fleet with -workers concurrent creators; with a
// ramp window, creation is paced so session i lands at i/N into the
// window.
func (lg *loadgen) createAll(ids []string, scheme string, racks, spr int, ramp time.Duration, workers int) error {
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	start := time.Now()
	next := atomic.Int64{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				if ramp > 0 {
					due := start.Add(time.Duration(float64(ramp) * float64(i) / float64(len(ids))))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				cfg := padd.SessionConfig{
					ID: ids[i], Scheme: scheme, Racks: racks, ServersPerRack: spr,
				}
				body, _ := json.Marshal(cfg)
				for {
					code, respBody, err := lg.post("/v1/sessions", "application/json", body)
					if err == nil && code == http.StatusCreated {
						break
					}
					if err == nil && code == http.StatusServiceUnavailable {
						// -max-sessions or a draining daemon: back off.
						time.Sleep(100 * time.Millisecond)
						continue
					}
					if err == nil {
						err = fmt.Errorf("create %s: HTTP %d: %s", ids[i], code, respBody)
					}
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// drive runs the paced send rounds. Sessions are partitioned across
// workers; stream mode batches -frame-sessions records per frame.
func (lg *loadgen) drive(ids []string, rounds int, interval time.Duration, workers int, verbose bool) {
	var wg sync.WaitGroup
	per := (len(ids) + workers - 1) / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > len(ids) {
			hi = len(ids)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w int, ids []string) {
			defer wg.Done()
			flat := make([]float64, lg.batch*lg.servers)
			var enc wire.Encoder
			var jsonBody []byte
			// Stream mode: one persistent connection per worker for the
			// whole drive phase — that is the point of the protocol.
			var sc *padd.StreamClient
			if lg.mode == padd.ModeStream {
				var err error
				if sc, err = padd.DialStream(lg.base); err != nil {
					fmt.Fprintf(os.Stderr, "padload: stream dial: %v\n", err)
					lg.errors.Add(1)
					return
				}
				defer sc.Close()
			}
			for r := 0; r < rounds; r++ {
				// Pace: round r begins at start + r*interval.
				if d := time.Until(start.Add(time.Duration(r) * interval)); d > 0 {
					time.Sleep(d)
				}
				lg.fill(flat, w, r)
				switch lg.mode {
				case padd.ModeStream:
					for lo := 0; lo < len(ids); lo += lg.perFrame {
						hi := lo + lg.perFrame
						if hi > len(ids) {
							hi = len(ids)
						}
						enc.Reset()
						for _, id := range ids[lo:hi] {
							if err := enc.AppendFlat(id, lg.batch, lg.servers, flat); err != nil {
								lg.errors.Add(1)
								return
							}
						}
						if !lg.streamSend(sc, &enc, flat) {
							return
						}
					}
				default:
					var req padd.TelemetryRequest
					for i := 0; i < lg.batch; i++ {
						req.Samples = append(req.Samples,
							padd.TelemetrySample{U: flat[i*lg.servers : (i+1)*lg.servers]})
					}
					jsonBody, _ = json.Marshal(req)
					for _, id := range ids {
						lg.send("/v1/sessions/"+id+"/telemetry", "application/json", jsonBody, lg.batch)
					}
				}
				if verbose && w == 0 {
					fmt.Printf("padload: round %d/%d, %d samples sent\n", r+1, rounds, lg.samples.Load())
				}
			}
		}(w, ids[lo:hi])
	}
	wg.Wait()
}

// fill writes one round's utilization: a slow sine per worker with a
// small per-sample phase shift, always inside [0, 1].
func (lg *loadgen) fill(flat []float64, worker, round int) {
	for i := range flat {
		phase := float64(round*len(flat)+i)/200 + float64(worker)
		flat[i] = 0.5 + 0.4*math.Sin(phase)
	}
}

// send posts one ingest payload, retrying on 429 until accepted, and
// observes the round-trip latency of every attempt.
func (lg *loadgen) send(path, contentType string, body []byte, samples int) {
	for {
		t0 := time.Now()
		code, respBody, err := lg.post(path, contentType, body)
		lg.hist.observe(time.Since(t0))
		lg.posts.Add(1)
		if err != nil {
			lg.errors.Add(1)
			return
		}
		switch code {
		case http.StatusAccepted:
			lg.samples.Add(int64(samples))
			return
		case http.StatusTooManyRequests:
			lg.retries.Add(1)
			time.Sleep(2 * time.Millisecond)
		default:
			fmt.Fprintf(os.Stderr, "padload: %s: HTTP %d: %s\n", path, code, respBody)
			lg.errors.Add(1)
			return
		}
	}
}

// streamSend writes the encoded frame on the worker's stream and waits
// for its binary ack (stop-and-wait keeps the latency histogram honest:
// each observation is one frame's full send→ack round trip). Samples
// are counted from the ack's accepted tally, so a partial ack never
// over-counts; queue-full rejects are re-encoded and retried alone,
// mirroring the 429 retry on the JSON path. Returns false on a hard
// failure (connection error or a non-backpressure reject).
func (lg *loadgen) streamSend(sc *padd.StreamClient, enc *wire.Encoder, flat []float64) bool {
	var a wire.Ack
	var retry []string
	for {
		t0 := time.Now()
		if _, err := sc.Send(enc.Frame()); err != nil {
			fmt.Fprintf(os.Stderr, "padload: stream send: %v\n", err)
			lg.errors.Add(1)
			return false
		}
		if err := sc.ReadAck(&a); err != nil {
			fmt.Fprintf(os.Stderr, "padload: stream ack: %v\n", err)
			lg.errors.Add(1)
			return false
		}
		lg.hist.observe(time.Since(t0))
		lg.posts.Add(1)
		lg.samples.Add(int64(a.Samples))
		switch a.Status {
		case wire.AckOK:
			return true
		case wire.AckPartial, wire.AckBackpressure:
			retry = retry[:0]
			for _, rej := range a.Rejects {
				if rej.Reason != wire.RejectQueueFull {
					fmt.Fprintf(os.Stderr, "padload: stream reject %s: reason %d\n", rej.ID, rej.Reason)
					lg.errors.Add(1)
					return false
				}
				retry = append(retry, string(rej.ID)) // copy: ID aliases the ack read buffer
			}
			if len(retry) == 0 {
				return true
			}
			lg.retries.Add(1)
			time.Sleep(2 * time.Millisecond)
			enc.Reset()
			for _, id := range retry {
				if err := enc.AppendFlat(id, lg.batch, lg.servers, flat); err != nil {
					lg.errors.Add(1)
					return false
				}
			}
		default:
			fmt.Fprintf(os.Stderr, "padload: stream ack status %s\n", wire.AckStatusName(a.Status))
			lg.errors.Add(1)
			return false
		}
	}
}

func (lg *loadgen) post(path, contentType string, body []byte) (int, string, error) {
	resp, err := lg.client.Post(lg.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
	return resp.StatusCode, string(bytes.TrimSpace(out)), nil
}

// verify lists the fleet and checks the lossless-ingest contract: the
// daemon must eventually tick every acknowledged sample and discard
// nothing. Polls briefly to let queues drain.
func (lg *loadgen) verify(ids []string, sent int64) error {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := lg.client.Get(lg.base + "/v1/sessions")
		if err != nil {
			return err
		}
		var list struct {
			Sessions []padd.SessionStatus `json:"sessions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var accepted, ticks, discarded, coasts, queued int64
		for _, st := range list.Sessions {
			if !want[st.ID] {
				continue
			}
			accepted += st.Accepted
			ticks += st.Ticks
			discarded += st.Discarded
			coasts += st.Coasts
			queued += int64(st.QueueDepth)
		}
		if discarded > 0 {
			return fmt.Errorf("padload: verify: %d samples discarded", discarded)
		}
		if queued == 0 && ticks == accepted+coasts {
			if accepted != sent {
				return fmt.Errorf("padload: verify: daemon accepted %d samples, padload sent %d", accepted, sent)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("padload: verify: queues not drained: %d queued, %d/%d ticked", queued, ticks, accepted+coasts)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fleetReport fetches GET /v1/fleet and prints the rollup padtop
// renders live — security-level distribution and breaker-margin
// percentiles — as an end-of-run summary of where the fleet landed.
func (lg *loadgen) fleetReport(w io.Writer) error {
	resp, err := lg.client.Get(lg.base + "/v1/fleet")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var fs padd.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		return err
	}
	levels := make([]string, 0, len(fs.LevelSessions))
	for l, n := range fs.LevelSessions {
		if n > 0 {
			levels = append(levels, fmt.Sprintf("L%d:%d", l, n))
		}
	}
	if len(levels) == 0 {
		levels = append(levels, "none")
	}
	fmt.Fprintf(w, "padload: fleet: %d sessions (%d under attack), levels %s, margin p50 %s p99 %s\n",
		fs.Sessions, fs.SessionsUnderAttack, strings.Join(levels, " "),
		padd.OccupancyQuantile(fs.MarginBoundsWatts, fs.MarginSessions, 0.50, "W"),
		padd.OccupancyQuantile(fs.MarginBoundsWatts, fs.MarginSessions, 0.99, "W"))
	return nil
}

func (lg *loadgen) deleteAll(ids []string, workers int) error {
	var wg sync.WaitGroup
	next := atomic.Int64{}
	var failed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				req, _ := http.NewRequest(http.MethodDelete, lg.base+"/v1/sessions/"+ids[i], nil)
				resp, err := lg.client.Do(req)
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("padload: %d deletes failed", n)
	}
	return nil
}

// rttHist is a power-of-two histogram of POST round-trip times.
type rttHist struct {
	counts [22]atomic.Int64 // bucket i: < 2^i * 16us; last is overflow
}

func (h *rttHist) observe(d time.Duration) {
	us := d.Microseconds() / 16
	b := 0
	for us > 0 && b < len(h.counts)-1 {
		us >>= 1
		b++
	}
	h.counts[b].Add(1)
}

// report prints p50/p90/p99/max estimated from bucket upper bounds.
func (h *rttHist) report(w io.Writer) {
	var counts [22]int64
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return
	}
	bound := func(b int) time.Duration {
		return time.Duration(16<<b) * time.Microsecond
	}
	quantile := func(q float64) time.Duration {
		target := int64(math.Ceil(q * float64(total)))
		cum := int64(0)
		for i, c := range counts {
			cum += c
			if cum >= target {
				return bound(i)
			}
		}
		return bound(len(counts) - 1)
	}
	qs := []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"max", 1}}
	parts := make([]string, 0, len(qs))
	for _, s := range qs {
		parts = append(parts, fmt.Sprintf("%s<%v", s.name, quantile(s.q)))
	}
	fmt.Fprintf(w, "padload: post latency: %s (%d posts)\n", strings.Join(parts, " "), total)
}
