package padd_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/policytest"
	"repro/internal/obs"
	"repro/internal/padd"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// legalEdges derives the set of allowed level transitions from the
// shared canonical timeline, so the online test and the core unit test
// agree on what Figure 9 permits.
func legalEdges() map[[2]core.Level]bool {
	edges := map[[2]core.Level]bool{}
	last := core.Level1
	for _, s := range policytest.Timeline() {
		if s.Want != last {
			edges[[2]core.Level{last, s.Want}] = true
			last = s.Want
		}
	}
	return edges
}

// The canonical hot scenario — noisy 70% background plus a CPU-spike
// virus on 120 nodes — shared by TestOnlineLevelsMatchOffline and the
// detection-latency pin. Hot enough that PAD leaves Level 1, sheds,
// and the CUSUM detector flags.
const (
	fig9Racks    = 22
	fig9SPR      = 10
	fig9Nodes    = 120
	fig9Ratio    = 0.6
	fig9Duration = 4 * time.Minute
	fig9Tick     = 100 * time.Millisecond
)

// figure9Stepper builds a fresh offline stepper for the canonical
// scenario; every instance is bit-identical (seeded generators).
func figure9Stepper(t *testing.T, record bool) *sim.Stepper {
	t.Helper()
	bg := stats.NoisyUtilization(fig9Racks*fig9SPR, 0.7, fig9Duration, 10*time.Second, 7)
	atk, err := virus.New(virus.Config{
		Profile: virus.CPUIntensive, SpikeWidth: 5 * time.Second, SpikesPerMinute: 6, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	attacked := make([]int, fig9Nodes)
	for i := range attacked {
		attacked[i] = i
	}
	scheme, err := schemes.ByName("PAD", schemes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	simCfg := sim.Config{
		Racks: fig9Racks, ServersPerRack: fig9SPR, Duration: fig9Duration, Tick: fig9Tick,
		OversubscriptionRatio: fig9Ratio,
		Background:            bg,
		Attacks:               []sim.AttackSpec{{Servers: attacked, Attack: atk}},
		MicroDEBFactory:       schemes.MicroDEBFactory(0.01),
		Record:                record, RecordStep: fig9Tick,
	}
	st, err := sim.NewStepper(simCfg, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestOnlineLevelsMatchOffline drives a scenario hot enough that PAD
// leaves Level 1 and recovers, and checks three things: the offline
// engine's level sequence only uses edges the canonical timeline
// allows, the online session reproduces that sequence exactly, and the
// session's event log reports each transition.
func TestOnlineLevelsMatchOffline(t *testing.T) {
	const (
		racks    = fig9Racks
		spr      = fig9SPR
		ratio    = fig9Ratio
		duration = fig9Duration
		tick     = fig9Tick
	)
	st := figure9Stepper(t, true)
	var demand [][]float64
	for !st.Done() {
		d := st.ComputeDemand()
		cp := make([]float64, len(d))
		copy(cp, d)
		demand = append(demand, cp)
		if err := st.Advance(d); err != nil {
			t.Fatal(err)
		}
	}
	offline := st.Result()

	offTrans := transitions(offline.Recording.Levels)
	if len(offTrans) == 0 {
		t.Fatal("scenario produced no level transitions; it proves nothing")
	}
	edges := legalEdges()
	for _, e := range offTrans {
		if !edges[e] {
			t.Errorf("offline level walk used illegal edge %v -> %v", e[0], e[1])
		}
	}

	// Online: same demand through a live session.
	mgr := padd.NewManager()
	defer mgr.Shutdown(context.Background())
	sess, err := mgr.Create(padd.SessionConfig{
		ID: "policy", Scheme: "PAD", Racks: racks, ServersPerRack: spr,
		Tick: padd.Duration{Duration: tick}, Horizon: padd.Duration{Duration: duration},
		Oversubscription: ratio,
		Record:           true, RecordStep: padd.Duration{Duration: tick},
		EventLog: 65536, // the whole run's μDEB shaves and margin minima
	})
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(demand); start += 100 {
		end := min(start+100, len(demand))
		for {
			err := sess.Enqueue(demand[start:end])
			if err == nil {
				break
			}
			if err != padd.ErrQueueFull {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	online, err := mgr.Delete("policy") // Stop drains the queue first
	if err != nil {
		t.Fatal(err)
	}
	onRes := online.Result()

	if !reflect.DeepEqual(offline.Recording.Levels, onRes.Recording.Levels) {
		t.Errorf("online level sequence diverged: offline %d transitions %v, online %v",
			len(offTrans), offTrans, transitions(onRes.Recording.Levels))
	}

	// The event log must narrate the same walk: each level event is a
	// transition A -> B, after the initial assignment from A = 0.
	var logged [][2]core.Level
	_, events, dropped := online.Events(0)
	if dropped != 0 {
		t.Fatalf("event log dropped %d events", dropped)
	}
	for _, e := range events {
		if e.Kind == obs.KindLevel && e.A != 0 {
			logged = append(logged, [2]core.Level{core.Level(e.A), core.Level(e.B)})
		}
	}
	if !reflect.DeepEqual(logged, offTrans) {
		t.Errorf("event log transitions %v, want %v", logged, offTrans)
	}
}

func transitions(levels []core.Level) [][2]core.Level {
	var out [][2]core.Level
	if len(levels) == 0 {
		return out
	}
	last := levels[0]
	for _, l := range levels[1:] {
		if l != last {
			out = append(out, [2]core.Level{last, l})
			last = l
		}
	}
	return out
}
