package schemes

import (
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/virus"
)

// plan runs one planning step the way the engine does: into a fresh
// zeroed scratch slice.
func plan(s sim.Scheme, view sim.ClusterView) []sim.Action {
	return s.PlanInto(view, make([]sim.Action, len(view.Racks)))
}

// noisyBackground builds per-server utilization series around mean u with
// small deterministic wander, at 10 s resolution.
func noisyBackground(racks, spr int, u float64, seed uint64) []*stats.Series {
	rng := stats.NewRNG(seed)
	out := make([]*stats.Series, racks*spr)
	for i := range out {
		r := rng.Split(uint64(i))
		s := stats.NewSeries(10 * time.Second)
		level := u
		for k := 0; k < 400; k++ { // ~66 minutes
			level += r.Norm(0, 0.03)
			if level < u-0.15 {
				level = u - 0.15
			}
			if level > u+0.15 {
				level = u + 0.15
			}
			s.Append(level)
		}
		out[i] = s
	}
	return out
}

// attackConfig builds a standard dense CPU attack on rack 0.
func attackConfig(racks, spr int, seed uint64) sim.AttackSpec {
	servers := make([]int, 4)
	for i := range servers {
		servers[i] = i // four servers of rack 0
	}
	return sim.AttackSpec{
		Servers: servers,
		Attack: virus.MustNew(virus.Config{
			Profile:         virus.CPUIntensive,
			SpikeWidth:      4 * time.Second,
			SpikesPerMinute: 6,
			PrepDuration:    5 * time.Second,
			MaxPhaseI:       4 * time.Minute,
			Seed:            seed,
		}),
	}
}

// runScheme executes a survival run for the scheme under a dense attack.
func runScheme(t *testing.T, s sim.Scheme, micro bool, duration time.Duration) *sim.Result {
	t.Helper()
	cfg := sim.Config{
		Racks:          6,
		ServersPerRack: 10,
		Tick:           200 * time.Millisecond,
		Duration:       duration,
		Background:     noisyBackground(6, 10, 0.55, 99),
		Attacks:        []sim.AttackSpec{attackConfig(6, 10, 7)},
		StopOnTrip:     true,
	}
	if micro {
		cfg.MicroDEBFactory = func(nameplate, budget units.Watts) *core.MicroDEB {
			bank := battery.NewMicroDEB(units.WattHours(2).Joules(), nameplate)
			u, err := core.NewMicroDEB(bank, budget)
			if err != nil {
				t.Fatal(err)
			}
			return u
		}
	}
	res, err := sim.Run(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSchemeNames(t *testing.T) {
	opts := Options{}
	names := map[string]sim.Scheme{
		"Conv": NewConv(opts), "PS": NewPS(opts), "PSPC": NewPSPC(opts),
		"vDEB": NewVDEB(opts), "uDEB": NewUDEB(opts), "PAD": NewPAD(opts),
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestActionShapes(t *testing.T) {
	view := sim.ClusterView{
		Tick:           100 * time.Millisecond,
		ServersPerRack: 10,
		PDUBudget:      10000,
		Racks: []sim.RackView{
			{Demand: 3000, Budget: 2500, BatterySOC: 0.9, BatteryMax: 2000, BatteryMaxCharge: 300, MicroSOC: 0.8},
			{Demand: 2000, Budget: 2500, BatterySOC: 0.4, BatteryMax: 2000, BatteryMaxCharge: 300, MicroSOC: 0.8},
		},
	}
	view.TotalDemand = 5000
	for _, s := range []sim.Scheme{
		NewConv(Options{}), NewPS(Options{}), NewPSPC(Options{}),
		NewVDEB(Options{}), NewUDEB(Options{}), NewPAD(Options{}),
	} {
		acts := plan(s, view)
		if len(acts) != 2 {
			t.Fatalf("%s: %d actions for 2 racks", s.Name(), len(acts))
		}
		for i, a := range acts {
			if a.Discharge < 0 || a.Charge < 0 || a.ShedServers < 0 {
				t.Errorf("%s rack %d: negative action %+v", s.Name(), i, a)
			}
		}
	}
}

func TestConvNeverDischarges(t *testing.T) {
	view := sim.ClusterView{
		Tick:           100 * time.Millisecond,
		ServersPerRack: 10,
		PDUBudget:      4000,
		TotalDemand:    6000,
		Racks: []sim.RackView{
			{Demand: 6000, Budget: 4000, BatterySOC: 1, BatteryMax: 5000},
		},
	}
	acts := plan(NewConv(Options{}), view)
	if acts[0].Discharge != 0 {
		t.Fatalf("Conv discharged %v", acts[0].Discharge)
	}
}

func TestPSDischargesExcessOnly(t *testing.T) {
	s := NewPS(Options{})
	view := sim.ClusterView{
		Tick:           100 * time.Millisecond,
		ServersPerRack: 10,
		PDUBudget:      8000,
		Racks: []sim.RackView{
			{Demand: 3000, Budget: 2500, BatterySOC: 1, BatteryMax: 5000, BatteryMaxCharge: 100},
			{Demand: 2000, Budget: 2500, BatterySOC: 0.5, BatteryMax: 5000, BatteryMaxCharge: 100},
		},
		TotalDemand: 5000,
	}
	acts := plan(s, view)
	if acts[0].Discharge != 500 {
		t.Fatalf("rack 0 discharge = %v, want 500", acts[0].Discharge)
	}
	if acts[1].Discharge != 0 {
		t.Fatalf("rack 1 discharge = %v, want 0", acts[1].Discharge)
	}
	if acts[1].Charge <= 0 {
		t.Fatal("rack 1 should charge from headroom")
	}
	// Battery-limited rack cannot discharge more than available.
	view.Racks[0].BatteryMax = 200
	acts = plan(NewPS(Options{}), view)
	if acts[0].Discharge != 200 {
		t.Fatalf("battery-limited discharge = %v, want 200", acts[0].Discharge)
	}
}

func TestPSPCCapsAfterLatency(t *testing.T) {
	s := NewPSPC(Options{})
	view := sim.ClusterView{
		Tick:           100 * time.Millisecond,
		ServersPerRack: 10,
		PDUBudget:      4000,
		TotalDemand:    6000,
		Racks: []sim.RackView{
			{Demand: 6000, Budget: 4000, BatterySOC: 0, BatteryMax: 0},
		},
	}
	// First ticks: smoothing has seeded at 6000 (over budget, battery
	// empty) but actuation is delayed.
	acts := plan(s, view)
	if acts[0].Freq != 0 {
		t.Fatalf("cap applied with no latency: freq %v", acts[0].Freq)
	}
	var freq float64
	for i := 0; i < 10; i++ {
		view.Time += view.Tick
		freq = plan(s, view)[0].Freq
	}
	if freq != 0.8 {
		t.Fatalf("cap after latency = %v, want 0.8", freq)
	}
}

func TestPSPCDoesNotCapWhenBatteryCovers(t *testing.T) {
	s := NewPSPC(Options{})
	view := sim.ClusterView{
		Tick:           100 * time.Millisecond,
		ServersPerRack: 10,
		PDUBudget:      4000,
		TotalDemand:    5000,
		Racks: []sim.RackView{
			{Demand: 5000, Budget: 4000, BatterySOC: 1, BatteryMax: 3000, BatteryMaxCharge: 100},
		},
	}
	var freq float64
	for i := 0; i < 10; i++ {
		view.Time += view.Tick
		freq = plan(s, view)[0].Freq
	}
	if freq != 0 {
		t.Fatalf("capped despite healthy battery: freq %v", freq)
	}
}

func TestVDEBShiftsDutyToHealthyRacks(t *testing.T) {
	s := NewVDEB(Options{})
	view := sim.ClusterView{
		Tick:           100 * time.Millisecond,
		ServersPerRack: 10,
		PDUBudget:      7000,
		TotalDemand:    8000,
		Racks: []sim.RackView{
			{Demand: 4000, Budget: 3500, BatterySOC: 0.05, BatteryMax: 2000, BatteryMaxCharge: 100},
			{Demand: 4000, Budget: 3500, BatterySOC: 0.95, BatteryMax: 2000, BatteryMaxCharge: 100},
		},
	}
	acts := plan(s, view)
	if acts[1].Discharge <= acts[0].Discharge {
		t.Fatalf("healthy rack should carry the duty: %v vs %v",
			acts[1].Discharge, acts[0].Discharge)
	}
	// The vulnerable rack's soft limit is raised above its default.
	if acts[0].Budget <= view.Racks[0].Budget {
		t.Fatalf("vulnerable rack budget not raised: %v", acts[0].Budget)
	}
}

func TestVDEBBudgetStretchBounded(t *testing.T) {
	s := NewVDEB(Options{})
	view := sim.ClusterView{
		Tick:           100 * time.Millisecond,
		ServersPerRack: 10,
		PDUBudget:      50000, // huge slack
		TotalDemand:    4000,
		Racks: []sim.RackView{
			{Demand: 4000, Budget: 3500, BatterySOC: 1, BatteryMax: 2000, BatteryMaxCharge: 100},
		},
	}
	acts := plan(s, view)
	if acts[0].Budget > units.Watts(3500*1.2)+1 {
		t.Fatalf("budget %v exceeds the 1.2x wiring stretch", acts[0].Budget)
	}
}

func TestPADReportsLevels(t *testing.T) {
	s := NewPAD(Options{})
	if s.Level() != core.Level1 {
		t.Fatal("pre-run level should default to L1")
	}
	// Two racks of 20 servers: 3% of 40 servers is one, the fewest the
	// shed budget lets PAD put to sleep.
	view := sim.ClusterView{
		Tick:           100 * time.Millisecond,
		ServersPerRack: 20,
		PDUBudget:      16000,
		TotalDemand:    12000,
		Racks: []sim.RackView{
			{Demand: 6000, Budget: 8000, BatterySOC: 1, BatteryMax: 4000, BatteryMaxCharge: 200, MicroSOC: 1},
			{Demand: 6000, Budget: 8000, BatterySOC: 1, BatteryMax: 4000, BatteryMaxCharge: 200, MicroSOC: 1},
		},
	}
	plan(s, view)
	if s.Level() != core.Level1 {
		t.Fatalf("healthy cluster level = %v", s.Level())
	}
	// Drain everything: escalates through L2 to L3 and sheds.
	for i := range view.Racks {
		view.Racks[i].BatterySOC = 0.01
		view.Racks[i].BatteryMax = 0
	}
	plan(s, view)
	if s.Level() != core.Level2 {
		t.Fatalf("drained pool level = %v, want L2", s.Level())
	}
	for i := range view.Racks {
		view.Racks[i].MicroSOC = 0.01
	}
	view.TotalDemand = 18000
	view.Racks[0].Demand = 9000
	view.Racks[1].Demand = 9000
	var acts []sim.Action
	// The monitoring smoother has a 60 s time constant: give it a few
	// minutes of simulated time to see the new demand level.
	for i := 0; i < 1800; i++ {
		view.Time += view.Tick
		acts = plan(s, view)
	}
	if s.Level() != core.Level3 {
		t.Fatalf("exhausted backups level = %v, want L3", s.Level())
	}
	shed := 0
	for _, a := range acts {
		shed += a.ShedServers
	}
	if shed == 0 {
		t.Fatal("L3 with shortfall should shed servers")
	}
}

func TestSurvivalOrderingUnderAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("survival ordering is a long test")
	}
	const horizon = 40 * time.Minute
	conv := runScheme(t, NewConv(Options{}), false, horizon)
	ps := runScheme(t, NewPS(Options{}), false, horizon)
	pad := runScheme(t, NewPAD(Options{}), true, horizon)

	if !conv.Tripped {
		t.Fatalf("Conv should trip under a dense attack (survived %v)", conv.SurvivalTime)
	}
	if ps.SurvivalTime <= conv.SurvivalTime {
		t.Errorf("PS (%v) should outlive Conv (%v)", ps.SurvivalTime, conv.SurvivalTime)
	}
	if pad.SurvivalTime <= ps.SurvivalTime {
		t.Errorf("PAD (%v) should outlive PS (%v)", pad.SurvivalTime, ps.SurvivalTime)
	}
}

func TestCapFreqFor(t *testing.T) {
	if got := capFreqFor(10, 4000, 5000, 0.5); got != 1 {
		t.Errorf("under target should not cap, got %v", got)
	}
	got := capFreqFor(10, 5210, 4500, 0.5)
	if got >= 1 || got < 0.5 {
		t.Errorf("cap out of range: %v", got)
	}
	// Deeper cuts need lower frequency.
	if capFreqFor(10, 5210, 4000, 0.5) >= got {
		t.Error("deeper target should cap harder")
	}
	// Impossible targets floor at the configured bound.
	if capFreqFor(10, 5210, 100, 0.5) != 0.5 {
		t.Error("impossible target should floor at 0.5")
	}
	if capFreqFor(10, 5210, 100, 0.8) != 0.8 {
		t.Error("impossible target should floor at 0.8")
	}
}

func TestOfflineChargingOption(t *testing.T) {
	s := NewPS(Options{Offline: true})
	view := sim.ClusterView{
		Tick:           100 * time.Millisecond,
		ServersPerRack: 10,
		PDUBudget:      8000,
		Racks: []sim.RackView{
			// SOC 0.8: above the offline threshold, must not charge.
			{Demand: 2000, Budget: 2500, BatterySOC: 0.8, BatteryMax: 100, BatteryMaxCharge: 100},
		},
		TotalDemand: 2000,
	}
	acts := plan(s, view)
	if acts[0].Charge != 0 {
		t.Fatalf("offline charger charged at SOC 0.8: %v", acts[0].Charge)
	}
	// Dip below threshold: charging starts.
	view.Racks[0].BatterySOC = 0.2
	acts = plan(s, view)
	if acts[0].Charge <= 0 {
		t.Fatal("offline charger should start below threshold")
	}
	// Online charger tops up whenever there is headroom.
	on := NewPS(Options{})
	view.Racks[0].BatterySOC = 0.8
	acts = plan(on, view)
	if acts[0].Charge <= 0 {
		t.Fatal("online charger should charge at SOC 0.8")
	}
}
