// Package schemes implements the six power-management schemes the paper
// evaluates (Table III):
//
//	Conv  — conventional: batteries held in reserve for outages only.
//	PS    — per-rack peak shaving with the local battery.
//	PSPC  — PS plus fixed DVFS power capping when the battery falls short.
//	VDEB  — PS plus the vDEB load-sharing pool (Algorithm 1).
//	UDEB  — PS plus the μDEB super-capacitor spike shaver.
//	PAD   — the full defense: vDEB + μDEB + hierarchical policy + shedding.
//
// All schemes satisfy sim.Scheme. Charging behaviour (online vs offline,
// the Figure 5 contrast) is an orthogonal knob in Options.
//
// Concurrency: a scheme instance carries per-run controller state
// (governors, pool controllers, μDEB banks) and is not safe for
// concurrent use. Construct a fresh scheme for every sim.Run; under the
// parallel sweep runner that means inside the job closure, never shared
// across jobs.
package schemes

import (
	"cmp"

	"repro/internal/battery"
	"repro/internal/powersim"
	"repro/internal/sim"
	"repro/internal/units"
)

// Options tune behaviour shared across schemes. Every scheme models the
// engine's servers, powersim.DL585G5, sleeping at powersim.SleepPower,
// and learns the rack size from the cluster it runs on
// (sim.ClusterView.ServersPerRack).
type Options struct {
	// Offline switches battery charging from online (opportunistic) to
	// offline (threshold-triggered), the Figure 5 contrast.
	Offline bool
	// OfflineThreshold is the SOC that triggers an offline recharge
	// cycle. 0 selects 0.30.
	OfflineThreshold float64
	// PIdeal is the per-rack safe discharge bound Algorithm 1 enforces.
	// 0 selects half the rack nameplate of the cluster the scheme runs
	// on.
	PIdeal units.Watts
	// Strict selects PAD's strict initial policy level for the
	// [vDEB>0, μDEB==0] states.
	Strict bool
}

// capFreq is the fixed DVFS cap PSPC applies under shortfall, and PAD's
// capping floor outside Level 3: the paper's 20% frequency decrease.
const capFreq = 0.8

// chargers lazily builds one charge policy per rack.
type chargers struct {
	opts     Options
	policies []battery.ChargePolicy
}

func (c *chargers) policy(i, n int) battery.ChargePolicy {
	if c.policies == nil {
		c.policies = make([]battery.ChargePolicy, n)
		for j := range c.policies {
			if c.opts.Offline {
				c.policies[j] = &battery.OfflineCharger{Threshold: cmp.Or(c.opts.OfflineThreshold, 0.30)}
			} else {
				c.policies[j] = battery.OnlineCharger{}
			}
		}
	}
	return c.policies[i]
}

// planCharge computes the charge request for rack i given its view.
func (c *chargers) planCharge(i int, views []sim.RackView) units.Watts {
	v := views[i]
	headroom := v.Budget - v.Demand
	if headroom <= 0 {
		return 0
	}
	want := c.policy(i, len(views)).Plan(v.BatterySOC, headroom)
	return units.Min(want, v.BatteryMaxCharge)
}

// capFreqFor returns the DVFS frequency that brings a rack's draw from
// demand down to target, using the aggregate server model: dynamic power
// scales roughly as freq^powersim.DVFSExponent when servers saturate.
// The result is clamped to [floor, 1]; realistic capping policies bound
// how deep they will throttle production servers (PAD uses the same 20%
// bound as PSPC, per the paper's performance-guarantee claim).
func capFreqFor(awakeServers int, demand, target units.Watts, floor float64) float64 {
	if target >= demand || demand <= 0 {
		return 1
	}
	idle := powersim.DL585G5.Idle * units.Watts(awakeServers)
	dyn := float64(demand - idle)
	dynT := float64(target - idle)
	if dyn <= 0 {
		return 1 // all idle: capping cannot help
	}
	if dynT <= 0 {
		return floor
	}
	f := powersim.DVFSFreq(dynT / dyn)
	if f < floor {
		return floor
	}
	if f > 1 {
		return 1
	}
	return f
}
