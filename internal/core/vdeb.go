// Package core implements the paper's contribution: the PAD (Power Attack
// Defense) energy-management patch. It contains the vDEB virtual battery
// pool controller (Algorithm 1), the μDEB spike shaver built on an ORing
// FET and a super-capacitor bank, the three-level hierarchical security
// policy of Figure 9, and the emergency load-shedding planner.
//
// Concurrency: controllers and μDEB units hold per-run state and are not
// safe for concurrent use; each belongs to the single simulation run (and
// goroutine) that constructed it.
package core

import (
	"fmt"

	"repro/internal/units"
)

// VDEBController implements the paper's Algorithm 1: two-level battery
// load sharing across the racks behind one PDU. Instead of each rack
// shaving its own excess, the controller pools the shave demand and
// assigns per-rack discharge power proportional to state of charge,
// capped at Pideal so no battery is driven beyond its safe rate. Racks
// with drained batteries are assigned (nearly) nothing — the mechanism
// that "hides vulnerable racks" from a Phase-I attacker.
type VDEBController struct {
	// PIdeal is the per-rack ideal (maximum safe) discharge power.
	PIdeal units.Watts

	order []int // reusable SOC-sort scratch for AllocateInto
}

// NewVDEBController creates a controller with the given per-rack
// discharge bound.
func NewVDEBController(pIdeal units.Watts) (*VDEBController, error) {
	if pIdeal <= 0 {
		return nil, fmt.Errorf("core: Pideal must be positive, got %v", pIdeal)
	}
	return &VDEBController{PIdeal: pIdeal}, nil
}

// AllocateInto distributes the pool-wide shave demand pShave across racks
// given their battery SOCs (in [0,1]), writing per-rack discharge
// assignments into out, which must have len(socs) entries; it returns
// out. The assignments have:
//
//   - every assignment in [0, PIdeal],
//   - total = min(pShave, n·PIdeal) up to rounding, and
//   - assignments proportional to SOC except where the PIdeal cap binds
//     (resolved high-SOC-first, as in Algorithm 1's quicksort loop).
//
// Note on fidelity: Algorithm 1 as printed decrements the remaining shave
// demand by Pideal/N inside the cap loop (line 14); that leaves the
// proportional pass over-allocating whenever any rack saturates. We
// decrement by the full Pideal actually assigned, which is the evident
// intent (total conservation).
//
// The controller reuses an internal sort scratch across calls, so a
// caller that also reuses out allocates nothing on the periodic refresh
// path.
func (c *VDEBController) AllocateInto(out []units.Watts, socs []float64, pShave units.Watts) []units.Watts {
	n := len(socs)
	if len(out) != n {
		panic("core: AllocateInto out/socs length mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	if n == 0 || pShave <= 0 {
		return out
	}
	// Saturated pool: "evenly usage DEB" at the safe bound.
	if pShave >= c.PIdeal*units.Watts(n) {
		for i := range out {
			out[i] = c.PIdeal
		}
		return out
	}
	// Sort rack indices by SOC, descending (Algorithm 1 lines 9-10).
	// Stable insertion sort: a stable order is unique, so this matches
	// sort.SliceStable bit for bit while allocating nothing, and rack
	// counts are small enough that O(n²) beats the reflection-based
	// library sort anyway.
	if cap(c.order) < n {
		c.order = make([]int, n)
	}
	order := c.order[:n]
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		x := order[i]
		j := i - 1
		for j >= 0 && socs[order[j]] < socs[x] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = x
	}
	socTotal := 0.0
	for _, s := range socs {
		socTotal += s
	}
	remaining := pShave
	k := 0
	// Cap loop (lines 11-15): while the proportional share of the current
	// highest-SOC rack would exceed PIdeal, pin it to PIdeal.
	for ; k < n; k++ {
		idx := order[k]
		if socTotal <= 0 {
			break
		}
		share := units.Watts(socs[idx] / socTotal * float64(remaining))
		if share <= c.PIdeal {
			break
		}
		out[idx] = c.PIdeal
		socTotal -= socs[idx]
		remaining -= c.PIdeal
	}
	// Proportional pass (lines 16-18) over the rest.
	if socTotal > 0 && remaining > 0 {
		for ; k < n; k++ {
			idx := order[k]
			out[idx] = units.Watts(socs[idx] / socTotal * float64(remaining))
		}
	}
	return out
}
