package padd_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/padd"
)

// TestWallClockCoasting drives a wall-clock session through one
// telemetry gap over the HTTP API: after its one sample it coasts on
// real time, stops coasting while paused and restarts on resume, logs
// the whole gap as one coast event, and drains losslessly.
func TestWallClockCoasting(t *testing.T) {
	mgr := padd.NewManager()
	t.Cleanup(func() { mgr.Shutdown(context.Background()) })
	srv := httptest.NewServer(padd.NewServer(mgr))
	t.Cleanup(srv.Close)
	c := &soakClient{t: t, base: srv.URL}

	const id, tick = "wc", 20 * time.Millisecond
	// Created paused so the sample is queued before the first coast can
	// fire: resuming processes it ahead of any coast, and the gap that
	// follows is the session's only one.
	if code, body := c.post("/v1/sessions", padd.SessionConfig{
		ID: id, Scheme: "PAD", Racks: 1, ServersPerRack: 2,
		Tick: padd.Duration{Duration: tick}, WallClock: true, Paused: true,
	}); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %s", code, body)
	}
	if code, body := c.post("/v1/sessions/"+id+"/telemetry", batchOf(2, 1, 0.5)); code != http.StatusAccepted {
		t.Fatalf("telemetry: HTTP %d: %s", code, body)
	}
	action := func(verb string) {
		t.Helper()
		if code, body := c.post("/v1/sessions/"+id+"/"+verb, nil); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", verb, code, body)
		}
	}
	waitCoasts := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := c.status(id)
			if st.Coasts >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("stuck at %d coast ticks, want %d", st.Coasts, want)
			}
			time.Sleep(tick / 4)
		}
	}

	action("resume")
	waitCoasts(5)

	// A slice already running when the pause lands may still finish its
	// coasts, so wait for two readings five ticks apart to agree.
	action("pause")
	var paused int64
	for deadline := time.Now().Add(5 * time.Second); ; {
		before := c.status(id).Coasts
		time.Sleep(5 * tick)
		if paused = c.status(id).Coasts; paused == before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still coasting while paused: %d -> %d coast ticks", before, paused)
		}
	}

	action("resume")
	waitCoasts(paused + 5)

	sess, err := mgr.Delete(id)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Status()
	if st.Accepted != 1 {
		t.Errorf("accepted %d samples, want 1", st.Accepted)
	}
	if st.Ticks != st.Accepted+st.Coasts-st.Discarded {
		t.Errorf("%d ticks from %d accepted (%d coasts, %d discarded)",
			st.Ticks, st.Accepted, st.Coasts, st.Discarded)
	}
	coasts := 0
	_, events, _ := sess.Events(0)
	for _, e := range events {
		if e.Kind == obs.KindCoast {
			coasts++
		}
	}
	if coasts != 1 {
		t.Errorf("%d coast events for one telemetry gap, want 1", coasts)
	}
}
