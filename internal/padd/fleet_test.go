package padd

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fleetHarness boots a manager behind a test server with two
// deterministic sessions: "f1" (PAD, driven 20 ticks of u=0.6 over the
// JSON path) and "f2" (Conv, paused, series disabled). Everything the
// fleet rollup reports about this pair is reproducible byte-for-byte.
func fleetHarness(t *testing.T) (*Manager, *httptest.Server) {
	t.Helper()
	mgr := NewManager()
	srv := httptest.NewServer(NewServer(mgr))
	t.Cleanup(srv.Close)

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}

	if code, body := post("/v1/sessions",
		`{"id":"f1","scheme":"PAD","racks":1,"servers_per_rack":2}`); code != http.StatusCreated {
		t.Fatalf("create f1: HTTP %d: %s", code, body)
	}
	if code, body := post("/v1/sessions",
		`{"id":"f2","scheme":"Conv","racks":1,"servers_per_rack":2,"paused":true,"disable_series":true}`); code != http.StatusCreated {
		t.Fatalf("create f2: HTTP %d: %s", code, body)
	}

	var batch struct {
		Samples []struct {
			U []float64 `json:"u"`
		} `json:"samples"`
	}
	batch.Samples = make([]struct {
		U []float64 `json:"u"`
	}, 20)
	for i := range batch.Samples {
		batch.Samples[i].U = []float64{0.6, 0.6}
	}
	payload, _ := json.Marshal(batch)
	if code, body := post("/v1/sessions/f1/telemetry", string(payload)); code != http.StatusAccepted {
		t.Fatalf("telemetry: HTTP %d: %s", code, body)
	}

	s, err := mgr.Get("f1")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics().Ticks < 20 {
		if time.Now().After(deadline) {
			t.Fatal("f1 did not process the batch")
		}
		time.Sleep(time.Millisecond)
	}
	return mgr, srv
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// TestFleetGolden pins the GET /v1/fleet JSON byte-for-byte: field
// names, order (fixed by the FleetStatus struct), histogram layout and
// number formatting are an interface padtop and dashboards consume.
func TestFleetGolden(t *testing.T) {
	mgr, srv := fleetHarness(t)
	defer mgr.Shutdown(t.Context())

	code, body := getBody(t, srv.URL+"/v1/fleet")
	if code != http.StatusOK {
		t.Fatalf("fleet: HTTP %d: %s", code, body)
	}

	golden := filepath.Join("testdata", "fleet.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Fatalf("fleet JSON drifted from golden (regenerate with -update if deliberate):\ngot:\n%s\nwant:\n%s",
			body, want)
	}

	// Sanity beyond the bytes: occupancy distributions cover the fleet.
	var fs FleetStatus
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Sessions != 2 {
		t.Errorf("sessions = %d, want 2", fs.Sessions)
	}
	var levels, margins int64
	for _, n := range fs.LevelSessions {
		levels += n
	}
	for _, n := range fs.MarginSessions {
		margins += n
	}
	if levels != 2 || margins != 2 {
		t.Errorf("occupancy sums: levels=%d margins=%d, want 2 and 2", levels, margins)
	}
}

// TestSeriesEndpoint drives a session a known number of ticks and walks
// the series API: raw and downsampled tiers, incremental ?since=
// fetches, and the error contract (bad metric/res, disabled recording,
// unknown session).
func TestSeriesEndpoint(t *testing.T) {
	mgr, srv := fleetHarness(t)
	defer mgr.Shutdown(t.Context())

	fetch := func(path string) (int, SeriesResponse, []byte) {
		t.Helper()
		code, body := getBody(t, srv.URL+path)
		var sr SeriesResponse
		if code == http.StatusOK {
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatalf("bad series JSON: %v\n%s", err, body)
			}
		}
		return code, sr, body
	}

	// 20 ticks at 100ms → raw tier steps 10 ticks per bucket: two full
	// buckets of SOC, each merged from 10 samples.
	code, sr, body := fetch("/v1/sessions/f1/series?metric=soc")
	if code != http.StatusOK {
		t.Fatalf("series: HTTP %d: %s", code, body)
	}
	if sr.ID != "f1" || sr.Metric != "soc" || sr.Res != "raw" {
		t.Errorf("echo fields: %+v", sr)
	}
	if sr.StepTicks != 10 || sr.TickSeconds != 0.1 || sr.Samples != 20 {
		t.Errorf("geometry: step=%d tick=%v samples=%d, want 10, 0.1, 20", sr.StepTicks, sr.TickSeconds, sr.Samples)
	}
	if len(sr.Buckets) != 2 {
		t.Fatalf("raw buckets: %d, want 2\n%+v", len(sr.Buckets), sr.Buckets)
	}
	for i, b := range sr.Buckets {
		if b.Index != uint64(i) || b.Count != 10 {
			t.Errorf("bucket %d: index=%d count=%d, want %d and 10", i, b.Index, b.Count, i)
		}
		if !(b.Min <= b.Last && b.Last <= b.Max) || b.Min <= 0 || b.Max > 1 {
			t.Errorf("bucket %d: SOC stats out of order: %+v", i, b)
		}
	}

	// The 10s tier merges all 20 ticks into one still-filling bucket.
	if code, sr, body = fetch("/v1/sessions/f1/series?metric=margin_watts&res=10s"); code != http.StatusOK {
		t.Fatalf("10s series: HTTP %d: %s", code, body)
	}
	if sr.StepTicks != 100 || len(sr.Buckets) != 1 || sr.Buckets[0].Count != 20 {
		t.Errorf("10s tier: step=%d buckets=%+v, want step 100 and one 20-sample bucket", sr.StepTicks, sr.Buckets)
	}

	// Incremental fetch: ?since=<samples seen> skips settled buckets.
	if code, sr, _ = fetch("/v1/sessions/f1/series?metric=soc&since=10"); code != http.StatusOK ||
		len(sr.Buckets) != 1 || sr.Buckets[0].Index != 1 {
		t.Errorf("since=10: HTTP %d buckets %+v, want only bucket 1", code, sr.Buckets)
	}

	// Error contract.
	if code, _, body = fetch("/v1/sessions/f1/series?metric=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad metric: HTTP %d: %s", code, body)
	}
	if code, _, body = fetch("/v1/sessions/f1/series?res=2h"); code != http.StatusBadRequest {
		t.Errorf("bad res: HTTP %d: %s", code, body)
	}
	if code, _, body = fetch("/v1/sessions/f1/series?since=x"); code != http.StatusBadRequest {
		t.Errorf("bad since: HTTP %d: %s", code, body)
	}
	if code, _, body = fetch("/v1/sessions/f2/series"); code != http.StatusNotFound {
		t.Errorf("disabled series: HTTP %d: %s", code, body)
	}
	if code, _, body = fetch("/v1/sessions/ghost/series"); code != http.StatusNotFound {
		t.Errorf("unknown session: HTTP %d: %s", code, body)
	}
}

// TestStatusUptimeAge covers the session-status liveness fields: uptime
// counts from creation, telemetry age is -1 until the first accepted
// batch and then tracks it.
func TestStatusUptimeAge(t *testing.T) {
	mgr, srv := fleetHarness(t)
	defer mgr.Shutdown(t.Context())

	status := func(id string) SessionStatus {
		t.Helper()
		code, body := getBody(t, srv.URL+"/v1/sessions/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %s", id, code, body)
		}
		var st SessionStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// f2 never received telemetry.
	if st := status("f2"); st.UptimeSeconds < 0 || st.LastTelemetryAgeSeconds != -1 {
		t.Errorf("f2: uptime=%v age=%v, want uptime ≥ 0 and age -1", st.UptimeSeconds, st.LastTelemetryAgeSeconds)
	}
	// f1 accepted a batch during harness setup.
	st := status("f1")
	if st.LastTelemetryAgeSeconds < 0 {
		t.Errorf("f1: age=%v after accepted telemetry, want ≥ 0", st.LastTelemetryAgeSeconds)
	}
	if st.UptimeSeconds < st.LastTelemetryAgeSeconds {
		t.Errorf("f1: uptime %v < telemetry age %v", st.UptimeSeconds, st.LastTelemetryAgeSeconds)
	}
}

// BenchmarkSessionPublishSeries prices what observability adds to the
// per-tick publish: five ring appends plus the rollup bucket moves. The
// CI gate holds this at zero allocations per op — the rings allocate
// once, on the first append, and never grow on the hot path.
func BenchmarkSessionPublishSeries(b *testing.B) {
	mgr := NewManager()
	defer mgr.Shutdown(context.Background())
	s, err := mgr.Create(SessionConfig{
		ID: "pub", Scheme: "Conv", Racks: 1, ServersPerRack: 2, Paused: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.publish(s.st.Stats(), time.Microsecond) // warm: the first append sizes the rings
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The paused engine never advances, so reset the one-sample-per-
		// tick guard to force the full append path every op.
		s.seriesTick = -1
		s.publish(s.st.Stats(), time.Microsecond)
	}
}
