package schemes

import (
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/virus"
)

// TestPADLifecycle runs a full attack through the engine and checks the
// recorded security-level trajectory: Normal while the pool covers the
// drain, Minor Incident once it collapses, Emergency when the μDEB is
// gone too — the Figure 9 narrative end to end.
func TestPADLifecycle(t *testing.T) {
	const racks, spr = 4, 10
	horizon := 20 * time.Minute
	bg := noisyBackground(racks, spr, 0.72, 99)
	cfg := sim.Config{
		Racks:              racks,
		ServersPerRack:     spr,
		Tick:               200 * time.Millisecond,
		Duration:           horizon,
		OvershootTolerance: 0.04,
		Background:         bg,
		// Small cabinets so the pool collapses inside the window.
		BatteryFactory: func(nameplate units.Watts) *battery.KiBaM {
			return battery.NewRackCabinet(nameplate, battery.SizeForAutonomy(nameplate, battery.RackCabinetAutonomy, 0, 0)/4, 0)
		},
		MicroDEBFactory: func(nameplate, budget units.Watts) *core.MicroDEB {
			bank := battery.NewMicroDEB(units.WattHours(0.3).Joules(), nameplate)
			u, err := core.NewMicroDEB(bank, budget)
			if err != nil {
				t.Fatal(err)
			}
			return u
		},
		Attacks: []sim.AttackSpec{{
			Servers: []int{0, 1, 2, 3},
			Attack: virus.MustNew(virus.Config{
				Profile:         virus.CPUIntensive,
				PrepDuration:    5 * time.Second,
				MaxPhaseI:       2 * time.Minute,
				SpikeWidth:      4 * time.Second,
				SpikesPerMinute: 6,
			}),
		}},
		Record:       true,
		RecordStep:   5 * time.Second,
		DisableTrips: true,
	}
	res, err := sim.Run(cfg, NewPAD(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[core.Level]bool{}
	prevMax := core.Level1
	firstL2, firstL3 := -1, -1
	for i, lvl := range res.Recording.Levels {
		seen[lvl] = true
		if lvl == core.Level2 && firstL2 < 0 {
			firstL2 = i
		}
		if lvl == core.Level3 && firstL3 < 0 {
			firstL3 = i
		}
		if lvl > prevMax {
			prevMax = lvl
		}
	}
	if !seen[core.Level1] {
		t.Error("run never passed through L1")
	}
	if !seen[core.Level2] {
		t.Error("pool collapse never reached L2")
	}
	if !seen[core.Level3] {
		t.Error("μDEB exhaustion never reached L3")
	}
	if firstL2 >= 0 && firstL3 >= 0 && firstL3 < firstL2 {
		t.Errorf("L3 (%d) before L2 (%d): escalation out of order", firstL3, firstL2)
	}
	// Escalation eventually sheds.
	if res.MeanShedRatio <= 0 {
		t.Error("L3 never shed any servers")
	}
	if res.EnergyFromMicro <= 0 {
		t.Error("the μDEB never shaved anything")
	}
}

// TestVDEBSaturatedPoolEvenDuty checks Algorithm 1's saturated branch
// through the scheme: with shave demand beyond n×PIdeal every rack is
// asked for exactly PIdeal.
func TestVDEBSaturatedPoolEvenDuty(t *testing.T) {
	s := NewVDEB(Options{PIdeal: 200})
	view := sim.ClusterView{
		Tick:           100 * time.Millisecond,
		ServersPerRack: 10,
		PDUBudget:      6000,
		TotalDemand:    9000, // shave 3000 >> 2×200
		Racks: []sim.RackView{
			{Demand: 4500, Budget: 3000, BatterySOC: 0.9, BatteryMax: 5000, BatteryMaxCharge: 100},
			{Demand: 4500, Budget: 3000, BatterySOC: 0.2, BatteryMax: 5000, BatteryMaxCharge: 100},
		},
	}
	acts := plan(s, view)
	for i, a := range acts {
		if a.Discharge != 200 {
			t.Errorf("rack %d discharge = %v, want the even 200", i, a.Discharge)
		}
	}
}

// TestUDEBRequestsMicroCharge checks the μDEB-only scheme keeps its banks
// topped up from headroom.
func TestUDEBRequestsMicroCharge(t *testing.T) {
	s := NewUDEB(Options{})
	view := sim.ClusterView{
		Tick:           100 * time.Millisecond,
		ServersPerRack: 10,
		PDUBudget:      8000,
		TotalDemand:    4000,
		Racks: []sim.RackView{
			{Demand: 2000, Budget: 4000, BatterySOC: 1, BatteryMax: 2000,
				BatteryMaxCharge: 100, MicroSOC: 0.5},
			{Demand: 2000, Budget: 4000, BatterySOC: 1, BatteryMax: 2000,
				BatteryMaxCharge: 100, MicroSOC: 1.0},
		},
	}
	acts := plan(s, view)
	if acts[0].MicroCharge <= 0 {
		t.Error("drained μDEB should request recharge")
	}
	if acts[1].MicroCharge != 0 {
		t.Error("full μDEB should not request recharge")
	}
}

// TestPADStrictOptionStartsAtL2 exercises Figure 9's organization choice
// for the [vDEB>0, μDEB==0] initial state.
func TestPADStrictOptionStartsAtL2(t *testing.T) {
	mk := func(strict bool) core.Level {
		s := NewPAD(Options{Strict: strict})
		view := sim.ClusterView{
			Tick:           100 * time.Millisecond,
			ServersPerRack: 10,
			PDUBudget:      8000,
			TotalDemand:    4000,
			Racks: []sim.RackView{
				// Healthy battery, drained μDEB.
				{Demand: 4000, Budget: 4000, BatterySOC: 1, BatteryMax: 5000,
					BatteryMaxCharge: 100, MicroSOC: 0.01},
			},
		}
		plan(s, view)
		return s.Level()
	}
	if got := mk(false); got != core.Level1 {
		t.Errorf("lax initial level = %v, want L1", got)
	}
	if got := mk(true); got != core.Level2 {
		t.Errorf("strict initial level = %v, want L2", got)
	}
}
