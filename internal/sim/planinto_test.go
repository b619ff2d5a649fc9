package sim_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/virus"
)

// scratchProbe checks the engine's side of the PlanInto contract on every
// call: the scratch slice must hold exactly len(view.Racks) entries, all
// zero. It then writes a valid, non-zero action into every entry, so an
// engine that forgot to re-zero its buffer shows up on the next tick.
type scratchProbe struct {
	calls int
	err   error
}

func (p *scratchProbe) Name() string { return "probe" }

func (p *scratchProbe) PlanInto(view sim.ClusterView, scratch []sim.Action) []sim.Action {
	p.calls++
	if p.err == nil {
		if len(scratch) != len(view.Racks) {
			p.err = fmt.Errorf("tick %d: scratch has %d entries for %d racks",
				p.calls, len(scratch), len(view.Racks))
		}
		for i, a := range scratch {
			if a != (sim.Action{}) {
				p.err = fmt.Errorf("tick %d: scratch[%d] not zeroed: %+v", p.calls, i, a)
				break
			}
		}
	}
	for i, v := range view.Racks {
		scratch[i] = sim.Action{
			Discharge:   1,
			Freq:        0.9,
			ShedServers: 1,
			Charge:      1,
			MicroCharge: 1,
			Budget:      v.Budget,
		}
	}
	return scratch
}

// TestPlanIntoScratchZeroed pins the engine's half of the planning
// contract through both entry points: Run (Step with trace-driven demand)
// and Advance with externally supplied demand, as the online daemon calls
// it.
func TestPlanIntoScratchZeroed(t *testing.T) {
	cfg := sim.Config{
		Racks:          3,
		ServersPerRack: 5,
		Tick:           100 * time.Millisecond,
		Duration:       5 * time.Second,
		Attacks: []sim.AttackSpec{{
			Servers: []int{0, 1, 5},
			Attack:  virus.MustNew(virus.Config{Profile: virus.CPUIntensive, Seed: 3}),
		}},
	}
	probe := &scratchProbe{}
	if _, err := sim.Run(cfg, probe); err != nil {
		t.Fatal(err)
	}
	if probe.err != nil {
		t.Fatalf("Run: %v", probe.err)
	}
	if probe.calls != 50 {
		t.Fatalf("Run planned %d ticks, want 50", probe.calls)
	}

	cfg.Attacks = nil
	probe = &scratchProbe{}
	st, err := sim.NewStepper(cfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	demand := make([]float64, st.TotalServers())
	for i := range demand {
		demand[i] = 0.6
	}
	for !st.Done() {
		if err := st.Advance(demand); err != nil {
			t.Fatal(err)
		}
	}
	if probe.err != nil {
		t.Fatalf("Advance: %v", probe.err)
	}
	if probe.calls != 50 {
		t.Fatalf("Advance planned %d ticks, want 50", probe.calls)
	}
}
