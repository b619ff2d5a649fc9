package padd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// TestEventRingRetention pins the event log's retention rule across its
// on-demand growth: whatever the bound and however many events were
// logged, list returns the newest min(k, bound) in order, counts the
// rest as dropped, the tick cursor filters within that window, and the
// buffer never holds more slots than the bound (nor more than a few
// after two events).
func TestEventRingRetention(t *testing.T) {
	for _, size := range []int{1, 5, 512} {
		for _, k := range []int{0, 1, size - 1, size, size + 1, 3*size + 2} {
			r := newEventRing(size)
			for i := 0; i < k; i++ {
				r.Write(obs.Meta{Ticks: int64(i + 1)}, []obs.Event{{Tick: int64(i)}}) //nolint:errcheck // the log never fails a write
				if c := cap(r.buf); c > size {
					t.Fatalf("size %d: cap(buf) = %d after %d events", size, c, i+1)
				}
				if c := cap(r.buf); i == 1 && c > 4 {
					t.Fatalf("size %d: cap(buf) = %d after two events, want <= 4", size, c)
				}
			}
			kept := min(k, size)
			first := int64(k - kept) // oldest retained tick
			check := func(since int64, want int) {
				t.Helper()
				meta, got, dropped := r.list(since)
				if len(got) != want || dropped != uint64(k-kept) || meta.Ticks != int64(k) {
					t.Fatalf("size %d, %d events: list(%d) returned %d events, %d dropped, header ticks %d; want %d, %d, %d",
						size, k, since, len(got), dropped, meta.Ticks, want, k-kept, k)
				}
				for i, e := range got {
					if tick := int64(k-want) + int64(i); e.Tick != tick {
						t.Fatalf("size %d, %d events: list(%d)[%d] at tick %d, want %d", size, k, since, i, e.Tick, tick)
					}
				}
			}
			check(0, kept)
			if first > 0 {
				check(first-1, kept) // below the window: everything retained
			}
			if kept > 1 {
				check(first+1, kept-1) // inside the window
			}
			check(int64(k), 0)   // at the next tick
			check(int64(k)+7, 0) // beyond it
		}
	}
}

// TestEventRingConcurrentReaders lists the log while it grows and
// wraps, one to three events per tick: every snapshot a reader takes is
// a contiguous run of the events written, its newest tick is whole, and
// the events before it are exactly the ones it counts as dropped.
func TestEventRingConcurrentReaders(t *testing.T) {
	const size, ticks = 64, 1000
	perTick := func(tick int64) int { return int(tick%3) + 1 }
	r := newEventRing(size)
	done := make(chan struct{})
	go func() {
		defer close(done)
		n := 0
		for tick := int64(0); tick < ticks; tick++ {
			evs := make([]obs.Event, perTick(tick))
			for i := range evs {
				evs[i] = obs.Event{Tick: tick, A: float64(n)} // A: index among all events
				n++
			}
			r.Write(obs.Meta{}, evs) //nolint:errcheck // the log never fails a write
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		_, got, dropped := r.list(0)
		if len(got) > size {
			t.Fatalf("snapshot holds %d events, bound %d", len(got), size)
		}
		if len(got) == 0 {
			continue
		}
		if got[0].A != float64(dropped) {
			t.Fatalf("snapshot starts at event %v with %d dropped", got[0].A, dropped)
		}
		for i := 1; i < len(got); i++ {
			if got[i].A != got[i-1].A+1 {
				t.Fatalf("snapshot not contiguous at %d: event %v after %v", i, got[i].A, got[i-1].A)
			}
		}
		last, n := got[len(got)-1].Tick, 0
		for i := len(got) - 1; i >= 0 && got[i].Tick == last; i-- {
			n++
		}
		if n != perTick(last) {
			t.Fatalf("newest tick %d holds %d of its %d events", last, n, perTick(last))
		}
	}
}

// TestEventLogBusyTicks drives a uDEB session through the ticks on
// which the most events fire at once — a step to full load makes every
// rack overload while its μDEB shaves, then heat and trip together,
// with margin minima on the way — and checks that the session logs
// exactly what an offline traced run of the same demand emits, with
// nothing dropped by the tracer sized to one tick or by the log.
func TestEventLogBusyTicks(t *testing.T) {
	const racks, spr, tick = 4, 10, 100 * time.Millisecond
	const horizon = 3 * time.Minute
	demand := make([][]float64, int(horizon/tick))
	for i := range demand {
		u := 0.1
		if i >= 20 {
			u = 1
		}
		demand[i] = make([]float64, racks*spr)
		for j := range demand[i] {
			demand[i][j] = u
		}
	}

	scheme, err := schemes.ByName("uDEB", schemes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(0)
	st, err := sim.NewStepper(sim.Config{
		Racks: racks, ServersPerRack: spr, Tick: tick, Duration: horizon,
		OversubscriptionRatio: 0.6, MicroDEBFactory: schemes.MicroDEBFactory(0.01),
		Trace: tracer,
	}, scheme)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range demand {
		if err := st.Advance(u); err != nil {
			t.Fatal(err)
		}
	}
	offline := tracer.Events()

	mgr := NewManager()
	defer mgr.Shutdown(context.Background())
	cfg := SessionConfig{
		ID: "busy", Scheme: "uDEB", Racks: racks, ServersPerRack: spr,
		Tick: Duration{tick}, Horizon: Duration{horizon}, Oversubscription: 0.6,
		// A reading every tick, so an anomaly may join any tick's events.
		MeterInterval: Duration{tick},
	}
	sess, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enqueueAll(t, sess, demand, 50)
	if _, err := mgr.Delete("busy"); err != nil { // Stop drains the queue
		t.Fatal(err)
	}
	meta, logged, dropped := sess.Events(0)
	if dropped != 0 || sess.trace.Dropped() != 0 {
		t.Fatalf("log dropped %d events, tracer %d; want 0", dropped, sess.trace.Dropped())
	}
	if meta.Ticks != int64(len(demand)) || meta.Scheme != "uDEB" || meta.Racks != racks {
		t.Errorf("header %+v, want uDEB, %d racks, %d ticks", meta, racks, len(demand))
	}

	var engine []obs.Event
	perTick := map[int64]int{}
	kinds := map[obs.Kind]bool{}
	for _, e := range logged {
		perTick[e.Tick]++
		kinds[e.Kind] = true
		if e.Kind != obs.KindAnomaly && e.Kind != obs.KindFinished {
			engine = append(engine, e)
		}
	}
	if !reflect.DeepEqual(engine, offline) {
		t.Fatalf("session logged %d engine events, offline run emitted %d", len(engine), len(offline))
	}
	for _, k := range []obs.Kind{obs.KindOverload, obs.KindMicroShave, obs.KindHeat, obs.KindTrip, obs.KindMarginLow, obs.KindFinished} {
		if !kinds[k] {
			t.Errorf("no %v event: the scenario no longer reaches it", k)
		}
	}
	busiest, bound := 0, tickEvents(sess.Config())
	for tk, n := range perTick {
		busiest = max(busiest, n)
		if n > bound {
			t.Errorf("tick %d logged %d events, above the per-tick bound %d", tk, n, bound)
		}
	}
	if busiest < 2*racks {
		t.Errorf("busiest tick logged %d events; the scenario should fire several per rack at once", busiest)
	}
}

// TestEventLogPolling polls a session's log over HTTP while it steps,
// resuming each poll at the last event's tick + 1: the concatenated
// polls must equal the final log, with nothing missing and nothing
// repeated.
func TestEventLogPolling(t *testing.T) {
	mgr := NewManager()
	defer mgr.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(mgr))
	defer srv.Close()
	const ticks = 2000
	sess, err := mgr.Create(SessionConfig{
		ID: "poll", Scheme: "PAD", Racks: 2, ServersPerRack: 4,
		Horizon: Duration{ticks * 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A load that swings every few seconds keeps PAD's policy, shedding
	// and vDEB refreshes logging throughout.
	demand := make([][]float64, ticks)
	for i := range demand {
		u := 0.4 + 0.6*float64((i/37)%2)
		demand[i] = []float64{u, u, u, u, u, u, u, u}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for start := 0; start < ticks; start += 20 {
			enqueueAll(t, sess, demand[start:start+20], 20)
			time.Sleep(time.Millisecond)
		}
	}()

	var polled []obs.Event
	since, polls := int64(0), 0
	deadline := time.Now().Add(30 * time.Second)
	for finished := false; ; {
		if time.Now().After(deadline) {
			t.Fatalf("session not finished after %d polls: %+v", polls, sess.Status())
		}
		// Read finished before polling: the poll that follows it holds
		// the session's last tick.
		finished = sess.Status().Finished
		resp, err := http.Get(srv.URL + "/v1/sessions/poll/events?since=" + strconv.FormatInt(since, 10))
		if err != nil {
			t.Fatal(err)
		}
		_, evs, foot, err := obs.ReadJSONL(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if foot.Dropped != 0 || foot.Events != len(evs) {
			t.Fatalf("poll footer %+v for %d events", foot, len(evs))
		}
		polls++
		polled = append(polled, evs...)
		if len(evs) > 0 {
			since = evs[len(evs)-1].Tick + 1
		}
		if finished {
			break
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	_, final, dropped := sess.Events(0)
	if dropped != 0 {
		t.Fatalf("final log dropped %d events", dropped)
	}
	if len(final) < 20 || polls < 3 {
		t.Fatalf("%d events over %d polls: too few to exercise the cursor", len(final), polls)
	}
	if !reflect.DeepEqual(polled, final) {
		t.Fatalf("polls gathered %d events, the log holds %d", len(polled), len(final))
	}
}

// enqueueAll offers demand to a session in batches, waiting out
// backpressure.
func enqueueAll(t *testing.T, s *Session, demand [][]float64, batch int) {
	t.Helper()
	for start := 0; start < len(demand); start += batch {
		for {
			err := s.Enqueue(demand[start:min(start+batch, len(demand))])
			if err == nil {
				break
			}
			if err != ErrQueueFull {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}
