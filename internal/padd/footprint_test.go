package padd_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/padd"
)

// TestQueueGrowsToDepth pins the ingest queue's on-demand growth: a
// queue that grows 2 → 4 → 5 slots while it wraps still accepts exactly
// QueueDepth batches before backpressure, reports QueueDepth as its
// capacity, and hands the engine its batches in arrival order.
func TestQueueGrowsToDepth(t *testing.T) {
	mgr := padd.NewManager()
	defer mgr.Shutdown(context.Background())
	s, err := mgr.Create(padd.SessionConfig{
		ID: "q", Scheme: "Conv", Racks: 1, ServersPerRack: 2,
		QueueDepth: 5, Paused: true, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Batch i carries utilization 0.1·i on both servers, so the grid
	// draw the engine records rises tick by tick only if the batches
	// are consumed in order.
	batch := func(i int) [][]float64 {
		u := 0.1 * float64(i)
		return [][]float64{{u, u}}
	}
	// One batch through a resumed session leaves the two-slot queue's
	// head at slot 1, so the next growth copies a wrapped ring.
	if err := s.Enqueue(batch(1)); err != nil {
		t.Fatal(err)
	}
	s.Resume()
	waitTicks(t, mgr, "q", 1)
	s.Pause()
	for i := 2; i <= 6; i++ {
		if err := s.Enqueue(batch(i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := s.Enqueue(batch(7)); !errors.Is(err, padd.ErrQueueFull) {
		t.Fatalf("sixth queued batch: %v, want ErrQueueFull", err)
	}
	st := s.Status()
	if st.Rejected != 1 || st.QueueDepth != 5 || st.QueueCap != 5 || st.Ticks != 1 {
		t.Fatalf("full queue: rejected=%d depth=%d cap=%d ticks=%d, want 1, 5, 5, 1",
			st.Rejected, st.QueueDepth, st.QueueCap, st.Ticks)
	}
	s.Resume()
	waitTicks(t, mgr, "q", 6)
	s.Stop()
	grid := s.Result().Recording.TotalGrid.Values
	if len(grid) != 6 {
		t.Fatalf("recorded %d ticks of grid draw, want 6", len(grid))
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			t.Fatalf("grid draw %v is not rising: batches left the queue out of order", grid)
		}
	}
}

// TestSessionFootprint bounds what an idle and a lightly used session
// cost on the heap, so per-session memory follows what a session holds
// rather than its configured bounds: the event log and the ingest queue
// grow on demand. 500 PAD 2×4 sessions without series recording are
// measured after creation and again after 50 ticks each. The same
// measurement with recording on is logged; its rings dominate.
func TestSessionFootprint(t *testing.T) {
	const n, ticks = 500, 50
	footprint := func(disableSeries bool) (created, ticked float64) {
		mgr := padd.NewManager()
		defer mgr.Shutdown(context.Background())
		before := heapAlloc()
		ss := make([]*padd.Session, n)
		for i := range ss {
			s, err := mgr.Create(padd.SessionConfig{
				ID: fmt.Sprintf("f%d", i), Scheme: "PAD", Racks: 2, ServersPerRack: 4,
				DisableSeries: disableSeries,
			})
			if err != nil {
				t.Fatal(err)
			}
			ss[i] = s
		}
		created = float64(heapAlloc()-before) / n
		batch := make([][]float64, ticks)
		for i := range batch {
			batch[i] = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
		}
		for _, s := range ss {
			if err := s.Enqueue(batch); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range ss {
			waitTicks(t, mgr, s.ID(), ticks)
		}
		ticked = float64(heapAlloc()-before) / n
		runtime.KeepAlive(ss)
		return created, ticked
	}
	created, ticked := footprint(true)
	t.Logf("without series: %.1f KB per session at creation, %.1f KB after %d ticks",
		created/1e3, ticked/1e3, ticks)
	if created > 8<<10 || ticked > 12<<10 {
		t.Errorf("per-session heap %.0f B at creation, %.0f B after %d ticks; want <= %d and <= %d",
			created, ticked, ticks, 8<<10, 12<<10)
	}
	_, ticked = footprint(false)
	t.Logf("with series: %.1f KB per session after %d ticks", ticked/1e3, ticks)
}

// heapAlloc returns the live heap after two collections: the second
// also empties sync.Pool's victim cache, so pooled batch buffers do not
// count against the sessions.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCreateRejectsOversizedConfig pins the create-time size bounds. A
// session's servers, queue depth and event log are each capped, so no
// single create request can make the daemon reserve or later grow more
// memory than a fleet can give it; before the bounds, each of the
// oversized configs below ended the process with a fatal out-of-memory
// error. The meter interval is bounded against the tick: one tick
// produces tick/meter_interval meter readings, and before the bound a
// 10ns meter made one 100ms tick take a second and allocate 827 MB,
// and a 1ns meter ended the process. Each rejection names its field
// and is a 400 over HTTP. Each accepted config ticks once.
func TestCreateRejectsOversizedConfig(t *testing.T) {
	mgr := padd.NewManager()
	defer mgr.Shutdown(context.Background())
	for _, tc := range []struct {
		cfg   padd.SessionConfig
		field string
	}{
		{padd.SessionConfig{EventLog: 2147483648}, "event_log"},
		{padd.SessionConfig{EventLog: 65537}, "event_log"},
		{padd.SessionConfig{QueueDepth: 2147483648}, "queue_depth"},
		{padd.SessionConfig{QueueDepth: 4097}, "queue_depth"},
		{padd.SessionConfig{Racks: 100000, ServersPerRack: 100000}, "servers_per_rack"},
		{padd.SessionConfig{Racks: 256, ServersPerRack: 256}, "servers_per_rack"},
		// The product is checked on the defaulted config: 22 racks.
		{padd.SessionConfig{ServersPerRack: 2979}, "servers_per_rack"},
		// So is the meter bound: a 100ms tick.
		{padd.SessionConfig{MeterInterval: padd.Duration{Duration: time.Nanosecond}}, "meter_interval"},
		{padd.SessionConfig{MeterInterval: padd.Duration{Duration: 10 * time.Nanosecond}}, "meter_interval"},
		{padd.SessionConfig{MeterInterval: padd.Duration{Duration: time.Microsecond}}, "meter_interval"},
		{padd.SessionConfig{MeterInterval: padd.Duration{Duration: 99900 * time.Nanosecond}}, "meter_interval"},
		// A bank outside (0, 1] of the cabinet's energy: a negative one
		// panicked the session's construction, a huge one is infinite.
		{padd.SessionConfig{ID: "micro", MicroFraction: -1}, "micro_fraction"},
		{padd.SessionConfig{ID: "micro", MicroFraction: 1.5}, "micro_fraction"},
		{padd.SessionConfig{ID: "micro", MicroFraction: 1e308}, "micro_fraction"},
		// A negative recording step panicked the engine's construction.
		{padd.SessionConfig{ID: "neg", Record: true, RecordStep: padd.Duration{Duration: -time.Second}}, "RecordStep"},
	} {
		_, err := mgr.Create(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Create(%+v) = %v, want an error naming %s", tc.cfg, err, tc.field)
		}
	}
	if n := len(mgr.List()); n != 0 {
		t.Fatalf("%d sessions after rejected creates, want 0", n)
	}

	for _, cfg := range []padd.SessionConfig{
		{ID: "log", Scheme: "Conv", Racks: 1, ServersPerRack: 2, EventLog: 65536},
		{ID: "queue", Scheme: "Conv", Racks: 1, ServersPerRack: 2, QueueDepth: 4096},
		{ID: "servers", Scheme: "Conv", Racks: 3, ServersPerRack: 21845},
		// 1000 meter readings per 100ms tick.
		{ID: "meter", Racks: 2, ServersPerRack: 4, MeterInterval: padd.Duration{Duration: 100 * time.Microsecond}},
		{ID: "coarse-tick", Racks: 2, ServersPerRack: 4, Tick: padd.Duration{Duration: time.Minute}},
		{ID: "meter-off", Racks: 2, ServersPerRack: 4, MeterInterval: padd.Duration{Duration: -time.Nanosecond}},
		// The rejected creates above left the ids free.
		{ID: "micro", Racks: 2, ServersPerRack: 4, MicroFraction: 1},
		{ID: "neg", Racks: 1, ServersPerRack: 2, Record: true, RecordStep: padd.Duration{Duration: time.Second}},
	} {
		s, err := mgr.Create(cfg)
		if err != nil {
			t.Errorf("Create(%s) at the bound: %v", cfg.ID, err)
			continue
		}
		u := make([]float64, cfg.Racks*cfg.ServersPerRack)
		for i := range u {
			u[i] = 0.9
		}
		if err := s.Enqueue([][]float64{u}); err != nil {
			t.Fatal(err)
		}
		waitTicks(t, mgr, cfg.ID, 1)
		if _, err := mgr.Delete(cfg.ID); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(padd.NewServer(mgr))
	defer srv.Close()
	c := &soakClient{t: t, base: srv.URL}
	if code, body := c.post("/v1/sessions", padd.SessionConfig{QueueDepth: 2147483648}); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "queue_depth") {
		t.Fatalf("oversized create: HTTP %d: %s, want 400 naming queue_depth", code, body)
	}
	if code, body := c.post("/v1/sessions", map[string]string{"meter_interval": "1ns"}); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "meter_interval") {
		t.Fatalf("1ns meter create: HTTP %d: %s, want 400 naming meter_interval", code, body)
	}
	if code, body := c.post("/v1/sessions", map[string]any{"id": "micro", "micro_fraction": -1}); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "micro_fraction") {
		t.Fatalf("negative micro_fraction create: HTTP %d: %s, want 400 naming micro_fraction", code, body)
	}
	if code, body := c.post("/v1/sessions", map[string]any{"id": "micro", "racks": 2, "servers_per_rack": 4}); code != http.StatusCreated {
		t.Fatalf("create after a rejected micro_fraction: HTTP %d: %s, want 201", code, body)
	}
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after oversized create: HTTP %d", resp.StatusCode)
	}

	// A rejected create gives back its id and its -max-sessions slot.
	one := padd.NewManagerWith(padd.Options{MaxSessions: 1})
	defer one.Shutdown(context.Background())
	oneSrv := httptest.NewServer(padd.NewServer(one))
	defer oneSrv.Close()
	c = &soakClient{t: t, base: oneSrv.URL}
	neg := map[string]any{"id": "neg", "racks": 1, "servers_per_rack": 2, "record": true, "record_step": "-1s"}
	if code, body := c.post("/v1/sessions", neg); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "RecordStep") {
		t.Fatalf("negative record_step create: HTTP %d: %s, want 400 naming RecordStep", code, body)
	}
	if code, body := c.post("/v1/sessions", map[string]any{"id": "neg", "racks": 1, "servers_per_rack": 2}); code != http.StatusCreated {
		t.Fatalf("create after a rejected record_step: HTTP %d: %s, want 201", code, body)
	}
}

// TestCreateSkipsTakenIDs checks that a create without an id takes the
// next s<N> no client has taken: after an explicit "s1", the id-less
// create is "s2", through Create and over HTTP.
func TestCreateSkipsTakenIDs(t *testing.T) {
	small := padd.SessionConfig{Scheme: "Conv", Racks: 1, ServersPerRack: 2}
	named := small
	named.ID = "s1"

	mgr := padd.NewManager()
	defer mgr.Shutdown(context.Background())
	if _, err := mgr.Create(named); err != nil {
		t.Fatal(err)
	}
	s, err := mgr.Create(small)
	if err != nil || s.ID() != "s2" {
		t.Fatalf("id-less Create after s1: %v, %v; want s2", s, err)
	}

	other := padd.NewManager()
	defer other.Shutdown(context.Background())
	srv := httptest.NewServer(padd.NewServer(other))
	defer srv.Close()
	c := &soakClient{t: t, base: srv.URL}
	if code, body := c.post("/v1/sessions", named); code != http.StatusCreated {
		t.Fatalf("create s1: HTTP %d: %s", code, body)
	}
	code, body := c.post("/v1/sessions", small)
	var st padd.SessionStatus
	if err := json.Unmarshal(body, &st); code != http.StatusCreated || err != nil || st.ID != "s2" {
		t.Fatalf("id-less create after s1: HTTP %d: %s, want 201 for s2", code, body)
	}
}
