// Capacity planning: size the μDEB super-capacitor bank. Sweeps the bank
// energy (as a fraction of the rack battery cabinet), measures survival
// under a dense hidden-spike attack with the battery pool already
// exhausted, and prices each point — the trade-off behind the paper's
// Figure 17. The interesting feature is the knee: once the bank covers a
// whole spike and can recover from headroom before the next one, survival
// jumps by an order of magnitude while cost keeps growing only linearly.
package main

import (
	"fmt"
	"log"
	"time"

	padsec "repro"
)

func main() {
	fractions := []float64{0.0005, 0.001, 0.002, 0.003, 0.005, 0.0075, 0.01}
	const horizon = 30 * time.Minute

	fmt.Println("μDEB sizing under a dense attack (battery pool exhausted)")
	fmt.Printf("%-12s %-12s %-14s %s\n", "bank (Wh)", "% of rack", "survival", "note")

	var base time.Duration
	for i, frac := range fractions {
		survival := survivalWith(frac, horizon)
		if i == 0 {
			base = survival
		}
		// The evaluated rack cabinet stores ~80 Wh; price the bank off
		// that.
		wh := 80.6 * frac
		note := ""
		if survival >= horizon {
			note = "outlasted the whole attack window"
		} else if base > 0 && survival > 3*base {
			note = "past the knee"
		}
		fmt.Printf("%-12.2f %-12.2f %-14v %s\n", wh, frac*100, survival, note)
	}
	fmt.Println("\nSuper-capacitors cost ~80x the $/Wh of lead-acid, so the bank is")
	fmt.Println("priced at a few percent of the rack battery — the knee is cheap.")
}

func survivalWith(fraction float64, horizon time.Duration) time.Duration {
	cfg := padsec.ClusterConfig{
		Racks:              3,
		ServersPerRack:     10,
		Duration:           horizon,
		OvershootTolerance: 0.04,
		Background:         padsec.FlatBackground(30, 0.31),
		StopOnTrip:         true,
		MicroDEBFactory:    padsec.NewMicroDEBFactory(fraction),
		Attacks: []padsec.AttackSpec{padsec.NewAttack(6, padsec.AttackConfig{
			Profile:         padsec.CPUIntensive,
			PrepDuration:    time.Second,
			MaxPhaseI:       time.Second,
			SpikeWidth:      2 * time.Second,
			SpikesPerMinute: 6,
		})},
		// Rack batteries enter the window drained: Phase I already
		// happened.
		BatteryFactory: drainedBattery,
	}
	res, err := padsec.Run(cfg, padsec.NewUDEB(padsec.SchemeOptions{}))
	if err != nil {
		log.Fatal(err)
	}
	return res.SurvivalTime
}

// drainedBattery builds a full rack cabinet and drains it toward 2%
// charge, the post-Phase-I state. The cabinet's low-voltage disconnect
// ends the drain first, just under 5%, and leaves it disconnected.
func drainedBattery(nameplate padsec.Watts) *padsec.BatteryStore {
	b := padsec.NewRackBattery(nameplate)
	drainTo(b, 0.02)
	return b
}

func drainTo(b *padsec.BatteryStore, soc float64) {
	for b.SOC() > soc {
		if b.Discharge(b.MaxDischarge(), time.Second) <= 0 {
			return
		}
	}
}
