package padsec_test

import (
	"fmt"
	"time"

	padsec "repro"
)

// ExampleRun simulates a short two-phase attack against an undefended
// cluster and reports the outcome.
func ExampleRun() {
	cfg := padsec.ClusterConfig{
		Racks:          2,
		ServersPerRack: 5,
		Duration:       5 * time.Minute,
		Background:     padsec.FlatBackground(10, 0.5),
		Attacks: []padsec.AttackSpec{padsec.NewAttack(3, padsec.AttackConfig{
			Profile:      padsec.CPUIntensive,
			PrepDuration: time.Second,
			MaxPhaseI:    2 * time.Minute,
		})},
		StopOnTrip: true,
	}
	res, err := padsec.Run(cfg, padsec.NewConv(padsec.SchemeOptions{}))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("scheme:", res.Scheme)
	fmt.Println("tripped:", res.Tripped)
	fmt.Println("victim rack:", res.FirstTripRack)
	// Output:
	// scheme: Conv
	// tripped: true
	// victim rack: 0
}

// ExampleNewPAD shows the defense surviving the same scenario the
// conventional baseline loses.
func ExampleNewPAD() {
	cfg := padsec.ClusterConfig{
		Racks:          2,
		ServersPerRack: 5,
		Duration:       5 * time.Minute,
		Background:     padsec.FlatBackground(10, 0.5),
		Attacks: []padsec.AttackSpec{padsec.NewAttack(3, padsec.AttackConfig{
			Profile:      padsec.CPUIntensive,
			PrepDuration: time.Second,
			MaxPhaseI:    2 * time.Minute,
		})},
		MicroDEBFactory: padsec.NewMicroDEBFactory(0.01),
		StopOnTrip:      true,
	}
	res, err := padsec.Run(cfg, padsec.NewPAD(padsec.SchemeOptions{}))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("tripped:", res.Tripped)
	fmt.Println("survived the full window:", res.SurvivalTime == 5*time.Minute)
	// Output:
	// tripped: false
	// survived the full window: true
}

// ExampleGenerateTrace builds a small synthetic Google-style trace and
// summarizes it into per-server utilization.
func ExampleGenerateTrace() {
	tr, err := padsec.GenerateTrace(padsec.TraceConfig{
		Machines: 4,
		Horizon:  time.Hour,
		Seed:     1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	bg, err := padsec.TraceBackground(tr, 5*time.Minute)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("machines:", tr.Machines)
	fmt.Println("series:", len(bg))
	fmt.Println("samples per series:", bg[0].Len())
	// Output:
	// machines: 4
	// series: 4
	// samples per series: 12
}

// ExampleNewRackBattery exercises the paper's rack battery cabinet: full
// rack load for the rated 50-second autonomy.
func ExampleNewRackBattery() {
	cab := padsec.NewRackBattery(5210)
	var delivered padsec.Watts
	for i := 0; i < 500; i++ { // 50 s in 100 ms steps
		delivered = cab.Discharge(5210, 100*time.Millisecond)
	}
	fmt.Println("still delivering at 50s:", delivered == 5210)
	fmt.Printf("SOC after the rated autonomy: %.0f%%\n", cab.SOC()*100)
	// Output:
	// still delivering at 50s: true
	// SOC after the rated autonomy: 38%
}

// ExampleRunCampaign plays the §3.1 co-residency hunt.
func ExampleRunCampaign() {
	res, err := padsec.RunCampaign(padsec.CampaignConfig{
		TargetRack: -1, // any rack will do
		Seed:       3,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("succeeded:", res.Succeeded)
	fmt.Println("squad size:", len(res.Servers))
	fmt.Println("cheap:", res.Probes < 1000)
	// Output:
	// succeeded: true
	// squad size: 4
	// cheap: true
}
