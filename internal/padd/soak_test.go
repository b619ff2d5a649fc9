package padd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/padd"
	"repro/internal/padd/wire"
)

// soakClient wraps the test server with typed helpers.
type soakClient struct {
	t    *testing.T
	base string
}

func (c *soakClient) post(path string, v any) (int, []byte) {
	c.t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func (c *soakClient) get(path string) (int, []byte) {
	c.t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func (c *soakClient) status(id string) padd.SessionStatus {
	c.t.Helper()
	code, body := c.get("/v1/sessions/" + id)
	if code != http.StatusOK {
		c.t.Fatalf("status %s: HTTP %d: %s", id, code, body)
	}
	var st padd.SessionStatus
	if err := json.Unmarshal(body, &st); err != nil {
		c.t.Fatal(err)
	}
	return st
}

func batchOf(servers, samples int, u float64) padd.TelemetryRequest {
	var req padd.TelemetryRequest
	for i := 0; i < samples; i++ {
		s := make([]float64, servers)
		for j := range s {
			s[j] = u
		}
		req.Samples = append(req.Samples, padd.TelemetrySample{U: s})
	}
	return req
}

// TestSoakConcurrentSessions drives 32 sessions at once through the
// HTTP API under deliberately tiny ingest queues, then shuts the
// manager down and checks the lossless-ingest invariant on every
// session: each sample acknowledged with 202 became exactly one engine
// tick (no wall clock, so no coasts; generous horizon, so no discards).
func TestSoakConcurrentSessions(t *testing.T) {
	mgr := padd.NewManager()
	srv := httptest.NewServer(padd.NewServer(mgr))
	defer srv.Close()
	c := &soakClient{t: t, base: srv.URL}

	const (
		nSessions = 32
		racks     = 3
		spr       = 4
		servers   = racks * spr
		batches   = 25
		batchLen  = 8
		total     = batches * batchLen
	)
	schemesCycle := []string{"Conv", "PS", "PSPC", "uDEB", "vDEB", "PAD"}

	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("soak-%02d", i)
		cfg := padd.SessionConfig{
			ID:             ids[i],
			Scheme:         schemesCycle[i%len(schemesCycle)],
			Racks:          racks,
			ServersPerRack: spr,
			QueueDepth:     4, // tiny on purpose: force 429s under load
		}
		if code, body := c.post("/v1/sessions", cfg); code != http.StatusCreated {
			t.Fatalf("create %s: HTTP %d: %s", ids[i], code, body)
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	retries := 0
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			u := 0.2 + 0.6*float64(i)/float64(nSessions)
			for b := 0; b < batches; b++ {
				req := batchOf(servers, batchLen, u)
				for {
					code, body := c.post("/v1/sessions/"+id+"/telemetry", req)
					if code == http.StatusAccepted {
						break
					}
					if code != http.StatusTooManyRequests {
						t.Errorf("%s: HTTP %d: %s", id, code, body)
						return
					}
					mu.Lock()
					retries++
					mu.Unlock()
					time.Sleep(time.Millisecond)
				}
			}
		}(i, id)
	}
	wg.Wait()
	t.Logf("soak: %d sessions × %d samples, %d backpressure retries", nSessions, total, retries)

	// Everything acknowledged must be processed: drain on shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	for _, id := range ids {
		st := c.status(id)
		if st.Accepted != total {
			t.Errorf("%s: accepted %d samples, want %d", id, st.Accepted, total)
		}
		if st.Ticks != st.Accepted+st.Coasts-st.Discarded {
			t.Errorf("%s: %d ticks from %d accepted samples (%d coasts, %d discarded)",
				id, st.Ticks, st.Accepted, st.Coasts, st.Discarded)
		}
		if st.Coasts != 0 {
			t.Errorf("%s: %d coasts without wall clock", id, st.Coasts)
		}
		if st.Discarded != 0 {
			t.Errorf("%s: %d samples discarded under a 24h horizon", id, st.Discarded)
		}
		if st.QueueDepth != 0 {
			t.Errorf("%s: %d batches left in queue after drain", id, st.QueueDepth)
		}
		if st.Level == 0 && st.Scheme == "PAD" {
			t.Errorf("%s: PAD reported no security level", id)
		}
	}

	// Draining flips health and refuses new work.
	if code, _ := c.get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: HTTP %d, want 503", code)
	}
	if code, _ := c.post("/v1/sessions", padd.SessionConfig{}); code != http.StatusServiceUnavailable {
		t.Errorf("create after shutdown: HTTP %d, want 503", code)
	}
}

// TestSoakFleet10k is the fleet soak: 10,000 resident sessions on one
// manager, fed through BOTH ingest paths at once — half of the fleet
// gets per-session JSON POSTs, the other half persistent streams whose
// connections are forcibly dropped mid-stream with acks unread and then
// reconnected (resending the unacked frames, at-least-once) — then a
// bounded concurrent Shutdown drains every session. The lossless-ingest
// invariant must hold on all 10k sessions; stream sessions may carry
// duplicate samples from the resends but never fewer than were acked,
// and nothing anywhere is discarded. Run under -race this is also the
// concurrency proof for the actor model: ingest, stream
// readers/ack writers, worker slices and shutdown all overlap.
func TestSoakFleet10k(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak skipped in -short")
	}
	const (
		nSessions = 10_000
		racks     = 1
		spr       = 2
		servers   = racks * spr
		samples   = 4 // per session
		perFrame  = 64
	)
	mgr := padd.NewManagerWith(padd.Options{MaxSessions: nSessions})
	srv := httptest.NewServer(padd.NewServer(mgr))
	defer srv.Close()
	c := &soakClient{t: t, base: srv.URL}

	schemesCycle := []string{"Conv", "PS", "PSPC", "uDEB", "vDEB", "PAD"}
	ids := make([]string, nSessions)
	// Create directly through the manager — the soak exercises ingest
	// and drain at fleet count; 10k HTTP creates would just slow -race.
	for i := range ids {
		ids[i] = fmt.Sprintf("fleet-%05d", i)
		_, err := mgr.Create(padd.SessionConfig{
			ID:             ids[i],
			Scheme:         schemesCycle[i%len(schemesCycle)],
			Racks:          racks,
			ServersPerRack: spr,
			// A tenth of the fleet keeps series recording on (the soak's
			// proof that recording never perturbs the ingest invariants);
			// the rest disable it so 10k sessions' rings don't blow the
			// -race heap.
			DisableSeries: i%10 != 0,
		})
		if err != nil {
			t.Fatalf("create %s: %v", ids[i], err)
		}
	}

	u := make([]float64, servers)
	for j := range u {
		u[j] = 0.5
	}
	flat := make([]float64, samples*servers)
	for j := range flat {
		flat[j] = 0.5
	}

	// Half of the fleet over JSON, sharded across posting goroutines.
	var wg sync.WaitGroup
	jsonN := nSessions / 2
	const posters = 8
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			req := batchOf(servers, samples, 0.5)
			for i := p; i < jsonN; i += posters {
				for {
					code, body := c.post("/v1/sessions/"+ids[i]+"/telemetry", req)
					if code == http.StatusAccepted {
						break
					}
					if code != http.StatusTooManyRequests {
						t.Errorf("%s: HTTP %d: %s", ids[i], code, body)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(p)
	}
	// streamFrames pushes one frame of samples for the given sessions
	// down a stream stop-and-wait, retrying exactly the queue-full
	// rejects, mirroring the JSON posters' 429 loops.
	streamFrames := func(sc *padd.StreamClient, pending []string) error {
		var enc wire.Encoder
		var a wire.Ack
		for len(pending) > 0 {
			enc.Reset()
			for _, id := range pending {
				if err := enc.AppendFlat(id, samples, servers, flat); err != nil {
					return err
				}
			}
			if _, err := sc.Send(enc.Frame()); err != nil {
				return err
			}
			if err := sc.ReadAck(&a); err != nil {
				return err
			}
			switch a.Status {
			case wire.AckOK:
				return nil
			case wire.AckPartial, wire.AckBackpressure:
				next := pending[:0:0]
				for _, rej := range a.Rejects {
					if rej.Reason != wire.RejectQueueFull {
						return fmt.Errorf("stream reject %s: reason %d", rej.ID, rej.Reason)
					}
					next = append(next, string(rej.ID))
				}
				pending = next
				if len(pending) > 0 {
					time.Sleep(time.Millisecond)
				}
			default:
				return fmt.Errorf("stream ack %s", wire.AckStatusName(a.Status))
			}
		}
		return nil
	}

	// The other half over persistent streams with forced mid-stream
	// disconnects: even chunks are acked normally; odd chunks are sent
	// with acks deliberately unread, then the connection is cut and a
	// reconnect resends them. Resent frames may duplicate (the server
	// may have ingested them before the cut) — the assertions below
	// allow that — but nothing acked may be lost.
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sc, err := padd.DialStream(c.base)
			if err != nil {
				t.Error(err)
				return
			}
			var enc wire.Encoder
			var unacked [][2]int
			ci := 0
			for lo := jsonN + p*perFrame; lo < nSessions; lo += posters * perFrame {
				hi := lo + perFrame
				if hi > nSessions {
					hi = nSessions
				}
				if ci%2 == 0 {
					if err := streamFrames(sc, ids[lo:hi]); err != nil {
						t.Error(err)
						sc.Close()
						return
					}
				} else {
					enc.Reset()
					for _, id := range ids[lo:hi] {
						if err := enc.AppendFlat(id, samples, servers, flat); err != nil {
							t.Error(err)
							sc.Close()
							return
						}
					}
					if _, err := sc.Send(enc.Frame()); err != nil {
						t.Error(err)
						sc.Close()
						return
					}
					unacked = append(unacked, [2]int{lo, hi})
				}
				ci++
			}
			sc.Flush() //nolint:errcheck // the cut below is the point
			sc.Close() // forced disconnect: unacked frames in flight
			sc2, err := padd.DialStream(c.base)
			if err != nil {
				t.Error(err)
				return
			}
			defer sc2.Close()
			for _, ch := range unacked {
				if err := streamFrames(sc2, ids[ch[0]:ch[1]]); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	streamIDs := make(map[string]bool, nSessions-jsonN)
	for _, id := range ids[jsonN:] {
		streamIDs[id] = true
	}
	var accepted int64
	for _, s := range mgr.List() {
		st := s.Status()
		accepted += st.Accepted
		if streamIDs[st.ID] {
			// At-least-once across the forced disconnect: every acked
			// sample landed, resends may have duplicated one frame.
			if st.Accepted < samples || st.Accepted > 2*samples {
				t.Errorf("%s: accepted %d samples across reconnect, want %d..%d",
					st.ID, st.Accepted, samples, 2*samples)
			}
		} else if st.Accepted != samples {
			t.Errorf("%s: accepted %d samples, want %d", st.ID, st.Accepted, samples)
		}
		// The lossless-drain invariant must hold identically for the
		// recording tenth and the series-disabled rest: observability
		// rides publish and may never change what counts as a tick.
		if st.Ticks != st.Accepted+st.Coasts-st.Discarded {
			t.Errorf("%s: %d ticks from %d accepted (%d coasts, %d discarded)",
				st.ID, st.Ticks, st.Accepted, st.Coasts, st.Discarded)
		}
		if st.Discarded != 0 {
			t.Errorf("%s: %d samples discarded", st.ID, st.Discarded)
		}
		if st.QueueDepth != 0 {
			t.Errorf("%s: %d batches left after drain", st.ID, st.QueueDepth)
		}
	}

	// The fleet rollup must account for every resident session exactly
	// once in each occupancy distribution, and count every accepted
	// sample exactly once, whichever path it came by.
	fs := mgr.Fleet()
	if fs.Sessions != nSessions {
		t.Errorf("fleet sessions = %d, want %d", fs.Sessions, nSessions)
	}
	var levels, margins int64
	for _, n := range fs.LevelSessions {
		levels += n
	}
	for _, n := range fs.MarginSessions {
		margins += n
	}
	if levels != nSessions || margins != nSessions {
		t.Errorf("rollup occupancy: levels=%d margins=%d, want %d each", levels, margins, nSessions)
	}
	if fs.AcceptedSamples != accepted {
		t.Errorf("fleet accepted samples = %d, sessions accepted %d", fs.AcceptedSamples, accepted)
	}

	// The scrape must carry the fleet families with both paths counted.
	code, body := c.get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"padd_sessions 10000\n",
		"padd_ingest_frames_total{format=\"json\"}",
		"padd_ingest_batch_size_count",
		"padd_stream_connections",
		"padd_stream_frames_total{result=\"ok\"}",
		"padd_fleet_level_sessions{level=\"0\"}",
		"padd_fleet_sessions_under_attack",
		"padd_fleet_margin_watts{le=\"+Inf\"}",
		"padd_ingest_batch_size_sum",
		"padd_go_goroutines",
		"padd_go_heap_bytes",
		"padd_go_gc_pauses_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestMaxSessions pins the -max-sessions contract: creates past the cap
// get 503 with Retry-After, and deleting a session frees its slot.
func TestMaxSessions(t *testing.T) {
	mgr := padd.NewManagerWith(padd.Options{MaxSessions: 2})
	defer mgr.Shutdown(context.Background())
	srv := httptest.NewServer(padd.NewServer(mgr))
	defer srv.Close()
	c := &soakClient{t: t, base: srv.URL}

	for i := 0; i < 2; i++ {
		cfg := padd.SessionConfig{ID: fmt.Sprintf("cap-%d", i), Scheme: "PAD", Racks: 1, ServersPerRack: 2}
		if code, body := c.post("/v1/sessions", cfg); code != http.StatusCreated {
			t.Fatalf("create %d: HTTP %d: %s", i, code, body)
		}
	}
	resp, err := http.Post(c.base+"/v1/sessions", "application/json",
		strings.NewReader(`{"id":"cap-2","scheme":"PAD","racks":1,"servers_per_rack":2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create past cap: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 past cap without Retry-After header")
	}

	delReq, _ := http.NewRequest(http.MethodDelete, c.base+"/v1/sessions/cap-0", nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, delResp.Body)
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d", delResp.StatusCode)
	}
	cfg := padd.SessionConfig{ID: "cap-2", Scheme: "PAD", Racks: 1, ServersPerRack: 2}
	if code, body := c.post("/v1/sessions", cfg); code != http.StatusCreated {
		t.Fatalf("create after delete: HTTP %d: %s", code, body)
	}
}

// TestBackpressure429 pins the backpressure contract deterministically:
// a paused session's queue fills to exactly QueueDepth batches, the
// next POST gets 429 with Retry-After, and resuming drains the queue
// without losing a sample.
func TestBackpressure429(t *testing.T) {
	mgr := padd.NewManager()
	defer mgr.Shutdown(context.Background())
	srv := httptest.NewServer(padd.NewServer(mgr))
	defer srv.Close()
	c := &soakClient{t: t, base: srv.URL}

	cfg := padd.SessionConfig{
		ID: "bp", Scheme: "PAD", Racks: 2, ServersPerRack: 3,
		QueueDepth: 2, Paused: true,
	}
	if code, body := c.post("/v1/sessions", cfg); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %s", code, body)
	}

	req := batchOf(6, 5, 0.5)
	for i := 0; i < 2; i++ {
		if code, body := c.post("/v1/sessions/bp/telemetry", req); code != http.StatusAccepted {
			t.Fatalf("fill %d: HTTP %d: %s", i, code, body)
		}
	}
	resp, err := http.Post(c.base+"/v1/sessions/bp/telemetry", "application/json",
		strings.NewReader(`{"samples":[{"u":[0.5,0.5,0.5,0.5,0.5,0.5]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if st := c.status("bp"); st.Rejected != 1 || st.Ticks != 0 {
		t.Errorf("paused session: rejected=%d ticks=%d, want 1 and 0", st.Rejected, st.Ticks)
	}

	if code, body := c.post("/v1/sessions/bp/resume", nil); code != http.StatusOK {
		t.Fatalf("resume: HTTP %d: %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := c.status("bp"); st.Ticks == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue not drained after resume: %+v", c.status("bp"))
		}
		time.Sleep(time.Millisecond)
	}

	// Deleting returns the run summary and forgets the session.
	// The event log is an obs trace: its header names the scheme and
	// counts the ticks advanced, and PAD's initial level is logged.
	code, body := c.get("/v1/sessions/bp/events")
	meta, events, _, err := obs.ReadJSONL(bytes.NewReader(body))
	if code != http.StatusOK || err != nil || meta.Scheme != "PAD" || meta.Ticks != 10 ||
		!slices.ContainsFunc(events, func(e obs.Event) bool { return e.Kind == obs.KindLevel && e.A == 0 }) {
		t.Errorf("events: HTTP %d, %v: %s", code, err, body)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, c.base+"/v1/sessions/bp", nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, delResp.Body)
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d", delResp.StatusCode)
	}
	if code, _ := c.get("/v1/sessions/bp"); code != http.StatusNotFound {
		t.Errorf("status after delete: HTTP %d, want 404", code)
	}
}

// TestMetricsExposition checks the Prometheus text format carries every
// promised per-session signal.
func TestMetricsExposition(t *testing.T) {
	mgr := padd.NewManager()
	defer mgr.Shutdown(context.Background())
	srv := httptest.NewServer(padd.NewServer(mgr))
	defer srv.Close()
	c := &soakClient{t: t, base: srv.URL}

	cfg := padd.SessionConfig{ID: "m1", Scheme: "PAD", Racks: 2, ServersPerRack: 3}
	if code, body := c.post("/v1/sessions", cfg); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %s", code, body)
	}
	if code, body := c.post("/v1/sessions/m1/telemetry", batchOf(6, 20, 0.6)); code != http.StatusAccepted {
		t.Fatalf("telemetry: HTTP %d: %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.status("m1").Ticks < 20 {
		if time.Now().After(deadline) {
			t.Fatal("session did not process the batch")
		}
		time.Sleep(time.Millisecond)
	}

	code, body := c.get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`padd_sessions 1`,
		`padd_session_soc{session="m1"}`,
		`padd_session_min_soc{session="m1"}`,
		`padd_session_micro_soc{session="m1"}`,
		`padd_session_level{session="m1"} 1`,
		`padd_session_shed_servers{session="m1"}`,
		`padd_session_shed_watts{session="m1"}`,
		`padd_session_grid_watts{session="m1"}`,
		`padd_session_breaker_margin_watts{session="m1"}`,
		`padd_session_queue_depth{session="m1"} 0`,
		`padd_session_ticks_total{session="m1"} 20`,
		`padd_session_accepted_samples_total{session="m1"} 20`,
		`padd_tick_latency_seconds_bucket{session="m1",le="+Inf"} 20`,
		`padd_tick_latency_seconds_count{session="m1"} 20`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
