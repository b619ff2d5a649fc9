// Quickstart: simulate a two-phase power attack against a battery-backed
// cluster twice — once under conventional peak shaving, once under the
// full PAD defense — and compare how long each survives.
package main

import (
	"fmt"
	"log"
	"time"

	padsec "repro"
)

func main() {
	// A 6-rack cluster of the paper's HP DL585 G5 servers, provisioned at
	// 75% of nameplate, running a steady background load.
	mkConfig := func() padsec.ClusterConfig {
		return padsec.ClusterConfig{
			Racks:          6,
			ServersPerRack: 10,
			Duration:       30 * time.Minute,
			Tick:           200 * time.Millisecond,
			Background:     padsec.FlatBackground(60, 0.55),
			// Four compromised servers on rack 0 run the classic
			// two-phase attack: drain the battery with a visible peak,
			// then fire hidden spikes.
			Attacks: []padsec.AttackSpec{padsec.NewAttack(4, padsec.AttackConfig{
				Profile:         padsec.CPUIntensive,
				SpikeWidth:      4 * time.Second,
				SpikesPerMinute: 6,
				MaxPhaseI:       4 * time.Minute,
			})},
			StopOnTrip: true,
		}
	}

	ps, err := padsec.Run(mkConfig(), padsec.NewPS(padsec.SchemeOptions{}))
	if err != nil {
		log.Fatal(err)
	}

	padCfg := mkConfig()
	// PAD additionally deploys a μDEB super-capacitor bank on every rack.
	padCfg.MicroDEBFactory = padsec.NewMicroDEBFactory(0.01)
	pad, err := padsec.Run(padCfg, padsec.NewPAD(padsec.SchemeOptions{}))
	if err != nil {
		log.Fatal(err)
	}

	describe := func(r *padsec.SimResult) {
		fmt.Printf("%-4s survived %-10v effective attacks: %-3d throughput: %.3f\n",
			r.Scheme, r.SurvivalTime, r.EffectiveAttacks, r.Throughput)
	}
	describe(ps)
	describe(pad)
	if pad.SurvivalTime > ps.SurvivalTime {
		fmt.Printf("\nPAD extended survival %.1fx over plain peak shaving.\n",
			float64(pad.SurvivalTime)/float64(ps.SurvivalTime))
	}
}
