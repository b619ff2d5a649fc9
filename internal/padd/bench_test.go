package padd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/padd"
	"repro/internal/padd/wire"
)

// The fleet ingest benchmarks price the two transports head to head
// over a real TCP HTTP server at collector cadence: one op moves one
// sample for every session in a 64-session fleet (one telemetry tick
// fleet-wide). Sessions are paused and the queues drained with the
// timer stopped every benchBurst ops, so the timed region is the
// ingest path alone — transport, decode, session lookup, enqueue, ack.
// Engine consumption is identical across transports and (on the
// single-core CI boxes) would otherwise bound every path at the same
// samples/sec, hiding exactly the per-request lifecycle cost the
// stream path exists to remove.
const (
	benchSessions = 64
	benchServers  = 8   // 2 racks × 4
	benchBurst    = 192 // ops between untimed drains; + stream window < QueueDepth
)

// benchFleet boots the paused 64-session fleet behind a real HTTP
// server and returns a drain func that (untimed) resumes, waits for
// every queued sample to tick, and pauses again.
func benchFleet(b *testing.B) (*httptest.Server, []string, func()) {
	b.Helper()
	mgr := padd.NewManagerWith(padd.Options{})
	b.Cleanup(func() { mgr.Shutdown(context.Background()) })
	ids := make([]string, benchSessions)
	ss := make([]*padd.Session, benchSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%03d", i)
		s, err := mgr.Create(padd.SessionConfig{
			ID:             ids[i],
			Scheme:         "Conv",
			Racks:          2,
			ServersPerRack: 4,
			QueueDepth:     256,
			Paused:         true,
			// These benchmarks price the ingest transports; the per-tick
			// series cost is measured by BenchmarkSessionPublishSeries.
			DisableSeries: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		ss[i] = s
	}
	srv := httptest.NewServer(padd.NewServer(mgr))
	b.Cleanup(srv.Close)
	drain := func() {
		for _, s := range ss {
			s.Resume()
		}
		deadline := time.Now().Add(30 * time.Second)
		for _, s := range ss {
			for {
				st := s.Status()
				if st.QueueDepth == 0 && st.Ticks == st.Accepted {
					break
				}
				if time.Now().After(deadline) {
					b.Fatalf("%s: drain stuck: %+v", s.ID(), st)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		for _, s := range ss {
			s.Pause()
		}
	}
	return srv, ids, drain
}

// benchFrame encodes the per-op payload: one sample for each session.
func benchFrame(b *testing.B, ids []string, flat []float64) []byte {
	b.Helper()
	var enc wire.Encoder
	for _, id := range ids {
		if err := enc.AppendFlat(id, 1, benchServers, flat); err != nil {
			b.Fatal(err)
		}
	}
	return append([]byte(nil), enc.Frame()...)
}

func benchFlat() []float64 {
	flat := make([]float64, benchServers)
	for i := range flat {
		flat[i] = float64(i%100) / 100
	}
	return flat
}

// BenchmarkFleetIngestJSON is one fleet tick through the compatibility
// path: 64 per-session JSON POSTs per op, each a full HTTP request on a
// kept-alive client. Kept beside the stream benchmark so BENCH_padd.json
// records what the stream buys at fleet scale.
func BenchmarkFleetIngestJSON(b *testing.B) {
	srv, ids, drain := benchFleet(b)
	body, err := json.Marshal(padd.TelemetryRequest{
		Samples: []padd.TelemetrySample{{U: benchFlat()}},
	})
	if err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchBurst == 0 {
			b.StopTimer()
			drain()
			b.StartTimer()
		}
		for _, id := range ids {
			resp, err := client.Post(srv.URL+"/v1/sessions/"+id+"/telemetry", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				b.Fatalf("telemetry %s: HTTP %d", id, resp.StatusCode)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*benchSessions/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkFleetIngestStream is the same fleet tick through the
// persistent stream: one 64-record wire frame per op down one
// long-lived upgraded connection, frames windowed in flight, compact
// binary acks. The CI gate holds this path to at least 6× the JSON
// path.
func BenchmarkFleetIngestStream(b *testing.B) {
	const window = 32 // frames in flight; must stay under the server ack window
	srv, ids, drain := benchFleet(b)
	frame := benchFrame(b, ids, benchFlat())
	sc, err := padd.DialStream(srv.URL)
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()

	var a wire.Ack
	inflight := 0
	readOne := func() {
		if err := sc.ReadAck(&a); err != nil {
			b.Fatal(err)
		}
		inflight--
		// The burst arithmetic keeps every queue under its depth, so
		// anything but a clean full ack is a correctness bug, not load.
		if a.Status != wire.AckOK || int(a.Records) != benchSessions {
			b.Fatalf("ack %+v, want AckOK %d records", a, benchSessions)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchBurst == 0 {
			for inflight > 0 {
				readOne()
			}
			b.StopTimer()
			drain()
			b.StartTimer()
		}
		for inflight >= window {
			readOne()
		}
		if _, err := sc.Send(frame); err != nil {
			b.Fatal(err)
		}
		inflight++
	}
	for inflight > 0 {
		readOne()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*benchSessions/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkSessionCreate is one full session lifecycle — create,
// drain, delete — the sessions/sec number a fleet churn (padload
// ramp profiles) is bounded by.
func BenchmarkSessionCreate(b *testing.B) {
	mgr := padd.NewManagerWith(padd.Options{})
	defer mgr.Shutdown(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := mgr.Create(padd.SessionConfig{
			ID:             fmt.Sprintf("churn-%d", i),
			Scheme:         "Conv",
			Racks:          1,
			ServersPerRack: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.Delete(s.ID()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
}

// BenchmarkMetricsScrape is one GET /metrics render at the perfbench
// fleet's scale: 2000 PAD 2×4 sessions without series recording, each
// ticked a few times so every family carries live values. One op is
// one full exposition written to io.Discard.
func BenchmarkMetricsScrape(b *testing.B) {
	const sessions, ticks = 2000, 3
	mgr := padd.NewManagerWith(padd.Options{})
	defer mgr.Shutdown(context.Background())
	batch := make([][]float64, ticks)
	for i := range batch {
		batch[i] = benchFlat()
	}
	ss := make([]*padd.Session, sessions)
	for i := range ss {
		s, err := mgr.Create(padd.SessionConfig{
			ID: fmt.Sprintf("scrape-%04d", i), Scheme: "PAD", Racks: 2, ServersPerRack: 4,
			DisableSeries: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Enqueue(batch); err != nil {
			b.Fatal(err)
		}
		ss[i] = s
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, s := range ss {
		for s.Status().Ticks < ticks {
			if time.Now().After(deadline) {
				b.Fatalf("%s: stuck at %d/%d ticks", s.ID(), s.Status().Ticks, ticks)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.WriteMetrics(io.Discard)
	}
}
