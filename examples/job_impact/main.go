// Job impact: translate a power attack's electrical outcome into the
// service-level numbers an operator answers for. The same workload runs
// through the job scheduler three times: clean, with the rack outage an
// undefended (Conv) cluster suffers under attack, and with the sustained
// 20% capping a PSPC cluster pays instead. Outages restart in-flight work
// and spike tail latency; capping quietly slows everything.
package main

import (
	"fmt"
	"log"
	"time"

	padsec "repro"
)

const (
	racks   = 6
	spr     = 10
	horizon = 2 * time.Hour
)

func main() {
	// A busy cluster: at 80% mean utilization the work displaced by an
	// outage has nowhere convenient to go.
	tr, err := padsec.GenerateTrace(padsec.TraceConfig{
		Machines:         racks * spr,
		Horizon:          horizon,
		Seed:             5,
		MeanUtilization:  0.9,
		MeanTaskDuration: 35 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	jobs := padsec.JobsFromTrace(tr)
	cfg := padsec.SchedulerConfig{Servers: racks * spr, Horizon: horizon + time.Hour}

	// First, find out when an undefended cluster actually trips under a
	// dense attack on rack 0.
	simCfg := padsec.ClusterConfig{
		Racks:          racks,
		ServersPerRack: spr,
		Duration:       horizon,
		Background:     padsec.FlatBackground(racks*spr, 0.55),
		// The attacker waits out the morning lull and strikes the loaded
		// mid-day window.
		Attacks: []padsec.AttackSpec{padsec.NewAttack(4, padsec.AttackConfig{
			Profile:      padsec.CPUIntensive,
			PrepDuration: 45 * time.Minute,
			MaxPhaseI:    3 * time.Minute,
		})},
		StopOnTrip: true,
	}
	convRes, err := padsec.Run(simCfg, padsec.NewConv(padsec.SchemeOptions{}))
	if err != nil {
		log.Fatal(err)
	}
	if !convRes.Tripped {
		log.Fatal("expected the undefended cluster to trip")
	}
	fmt.Printf("Undefended cluster tripped rack %d after %v; operator recovery takes 30 min.\n\n",
		convRes.FirstTripRack, convRes.SurvivalTime)

	run := func(label string, imp []padsec.Impairment) padsec.JobMetrics {
		_, m, err := padsec.RunJobs(cfg, jobs, imp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s completed %4d  dropped %3d  restarts %3d  mean slowdown %.2f  p95 %.2f\n",
			label, m.Completed, m.Dropped, m.Restarts, m.MeanSlowdown, m.P95Slowdown)
		return m
	}

	clean := run("no attack", nil)
	outage := run("Conv: rack outage", padsec.RackOutage(
		convRes.FirstTripRack, spr,
		convRes.SurvivalTime, convRes.SurvivalTime+30*time.Minute))
	// The worst case the paper warns about: the attack coincides with a
	// cluster-wide peak and the PDU breaker goes — every rack dark.
	var pduOutage []padsec.Impairment
	for r := 0; r < racks; r++ {
		pduOutage = append(pduOutage, padsec.RackOutage(
			r, spr, convRes.SurvivalTime, convRes.SurvivalTime+30*time.Minute)...)
	}
	pdu := run("Conv: PDU outage", pduOutage)
	// PSPC avoids the outage by capping the victim rack 20% for the rest
	// of the window once its battery is gone.
	var capping []padsec.Impairment
	for s := 0; s < spr; s++ {
		capping = append(capping, padsec.Impairment{
			Server:      convRes.FirstTripRack*spr + s,
			From:        convRes.SurvivalTime,
			To:          horizon,
			SpeedFactor: 0.8,
		})
	}
	capped := run("PSPC: sustained cap", capping)

	fmt.Println()
	fmt.Printf("A single-rack outage restarted %d tasks — restartable batch work on a\n", outage.Restarts)
	fmt.Printf("cluster with headroom absorbs it, which is why the paper's attacker\n")
	fmt.Printf("aims at mission-critical racks. A PDU-level trip restarted %d tasks\n", pdu.Restarts)
	fmt.Printf("and stretched p95 slowdown to %.2fx; sustained capping avoided every\n", pdu.P95Slowdown/clean.P95Slowdown)
	fmt.Printf("restart but slowed all work (mean %.0f%%, p95 %.0f%%).\n",
		(capped.MeanSlowdown/clean.MeanSlowdown-1)*100,
		(capped.P95Slowdown/clean.P95Slowdown-1)*100)
	fmt.Println("PAD's point: keep the racks up without paying the sustained cap either.")
}
