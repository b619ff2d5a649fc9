package sim_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

func coordBG(servers int, d time.Duration) []*stats.Series {
	return stats.NoisyUtilization(servers, 0.3, d, 10*time.Second, 11)
}

func coordVirus(seed uint64, prep time.Duration) *virus.Attack {
	return virus.MustNew(virus.Config{
		Profile:         virus.CPUIntensive,
		SpikeWidth:      2 * time.Second,
		SpikesPerMinute: 6,
		PrepDuration:    prep,
		MaxPhaseI:       20 * time.Second,
		Seed:            seed,
	})
}

// TestCoordinatedAttackGroups exercises a phase-staggered multi-rack
// campaign: three groups on three racks, each with its own controller,
// must run deterministically, and the stagger must actually shift the
// groups' Phase-II spike trains apart.
func TestCoordinatedAttackGroups(t *testing.T) {
	const racks, spr = 4, 5
	run := func() (*sim.Result, []*virus.Attack) {
		var ctrls []*virus.Attack
		var specs []sim.AttackSpec
		for g := 0; g < 3; g++ {
			a := coordVirus(uint64(100+g), time.Duration(1+3*g)*time.Second)
			ctrls = append(ctrls, a)
			base := g * spr
			specs = append(specs, sim.AttackSpec{
				Servers: []int{base, base + 1},
				Attack:  a,
			})
		}
		cfg := sim.Config{
			Racks:          racks,
			ServersPerRack: spr,
			Tick:           100 * time.Millisecond,
			Duration:       2 * time.Minute,
			Background:     coordBG(racks*spr, 2*time.Minute),
			Attacks:        specs,
		}
		res, err := sim.Run(cfg, schemes.NewPS(schemes.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		return res, ctrls
	}
	res1, ctrls := run()
	res2, _ := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("coordinated campaign not deterministic:\n%+v\n%+v", res1, res2)
	}
	for g, a := range ctrls {
		if a.Phase() != virus.PhaseII {
			t.Fatalf("group %d never reached Phase II (phase %v)", g, a.Phase())
		}
		if a.SpikesLaunched() == 0 {
			t.Fatalf("group %d launched no spikes", g)
		}
	}
	// The stagger shifts each group's first spike later than the
	// previous group's.
	for g := 1; g < len(ctrls); g++ {
		prev, cur := ctrls[g-1].SpikeTimes(), ctrls[g].SpikeTimes()
		if cur[0] <= prev[0] {
			t.Fatalf("group %d first spike %v not after group %d first spike %v",
				g, cur[0], g-1, prev[0])
		}
	}
}

// TestAttackGroupValidation covers the new configuration errors.
func TestAttackGroupValidation(t *testing.T) {
	cfg := sim.Config{
		Racks:          2,
		ServersPerRack: 2,
		Duration:       time.Second,
	}
	scheme := schemes.NewPS(schemes.Options{})

	overlap := cfg
	overlap.Attacks = []sim.AttackSpec{
		{Servers: []int{0, 1}, Attack: coordVirus(1, time.Second)},
		{Servers: []int{1, 2}, Attack: coordVirus(2, time.Second)},
	}
	if _, err := sim.Run(overlap, scheme); err == nil {
		t.Fatal("overlapping attack groups not rejected")
	}

	nilCtrl := cfg
	nilCtrl.Attacks = []sim.AttackSpec{{Servers: []int{0}}}
	if _, err := sim.Run(nilCtrl, scheme); err == nil {
		t.Fatal("attack group without controller not rejected")
	}

	// Repeats within one group stay accepted (legacy behaviour).
	repeat := cfg
	repeat.Attacks = []sim.AttackSpec{
		{Servers: []int{0, 0, 1}, Attack: coordVirus(1, time.Second)},
	}
	if _, err := sim.Run(repeat, scheme); err != nil {
		t.Fatalf("in-group repeated server rejected: %v", err)
	}
}
