// Attack analysis: explore how a power virus's parameters — class,
// spike width and frequency — change its ability to overload a drained
// rack, the exploration behind the paper's Figure 8. The example also
// shows the attacker's Phase-I learning: how accurately it estimates the
// victim's battery autonomy from the capping side channel.
package main

import (
	"fmt"
	"log"
	"time"

	padsec "repro"
)

func main() {
	fmt.Println("Effective attacks in 10 minutes against one drained rack")
	fmt.Println("(4 compromised servers of 10; budget 75% of nameplate, 8% overshoot tolerated)")
	fmt.Println()
	fmt.Printf("%-8s %-8s %-10s %s\n", "profile", "width", "per-min", "effective attacks")

	for _, prof := range []padsec.VirusProfile{
		padsec.CPUIntensive, padsec.MemIntensive, padsec.IOIntensive,
	} {
		for _, width := range []time.Duration{time.Second, 4 * time.Second} {
			for _, perMin := range []float64{1, 6} {
				n := effectiveAttacks(prof, width, perMin)
				fmt.Printf("%-8s %-8v %-10.3g %d\n", prof.Name, width, perMin, n)
			}
		}
	}

	// Phase-I learning: drive a full two-phase attack against a PSPC
	// cluster and report what the attacker inferred about the battery.
	cfg := padsec.ClusterConfig{
		Racks:          1,
		ServersPerRack: 10,
		Duration:       20 * time.Minute,
		Background:     padsec.FlatBackground(10, 0.5),
		Attacks: []padsec.AttackSpec{padsec.NewAttack(4, padsec.AttackConfig{
			Profile:   padsec.CPUIntensive,
			MaxPhaseI: 18 * time.Minute,
		})},
		DisableTrips: true,
	}
	if _, err := padsec.Run(cfg, padsec.NewPSPC(padsec.SchemeOptions{})); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPhase-I side channel: the attacker measured a %v drain time "+
		"before capping betrayed the empty battery.\n",
		cfg.Attacks[0].Attack.LearnedDrainTime().Round(time.Second))
}

func effectiveAttacks(prof padsec.VirusProfile, width time.Duration, perMin float64) int {
	cfg := padsec.ClusterConfig{
		Racks:          1,
		ServersPerRack: 10,
		Duration:       10 * time.Minute,
		Background:     padsec.FlatBackground(10, 0.5),
		Attacks: []padsec.AttackSpec{padsec.NewAttack(4, padsec.AttackConfig{
			Profile:         prof,
			SpikeWidth:      width,
			SpikesPerMinute: perMin,
			PrepDuration:    time.Second,
			MaxPhaseI:       time.Second, // the rack battery is left at default (full)
		})},
		DisableTrips: true, // count overloads without ending the run
	}
	// Conventional management with a full battery would shave the spikes;
	// to study the raw threat the example leaves the battery untouched by
	// using the conventional (never-discharge) scheme.
	res, err := padsec.Run(cfg, padsec.NewConv(padsec.SchemeOptions{}))
	if err != nil {
		log.Fatal(err)
	}
	return res.EffectiveAttacks
}
