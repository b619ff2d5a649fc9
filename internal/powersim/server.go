// Package powersim models the electrical substrate of a data center
// cluster: server power draw (with DVFS capping), rack and cluster power
// distribution units with per-outlet soft limits (the oversubscription
// model of the paper's §2.2), and circuit breakers with inverse-time trip
// behaviour.
package powersim

import (
	"math"

	"repro/internal/units"
)

// ServerModel is the utilization→power model for one server. The paper's
// evaluation uses the HP ProLiant DL585 G5 SPECpower points: 299 W active
// idle, 521 W peak.
type ServerModel struct {
	// Idle is the active-idle power draw.
	Idle units.Watts
	// Peak is the full-utilization power draw (nameplate).
	Peak units.Watts
}

// DL585G5 is the evaluated server model.
var DL585G5 = ServerModel{Idle: 299, Peak: 521}

// DVFSExponent relates frequency scaling to dynamic power:
// dynamic ∝ freq^DVFSExponent, near-cubic voltage scaling tempered by
// uncore power.
const DVFSExponent = 2.4

// SleepPower is the draw of a server held in deep sleep by load
// shedding.
const SleepPower units.Watts = 20

// dvfsFrac is the fractional part math.Pow splits off the float64
// DVFSExponent-1 before taking Exp(y·Log(x)): 1.4 rounds to a float64
// just below it, so this is 0.3999999999999999, not 0.4.
var _, dvfsFrac = math.Modf(DVFSExponent - 1)

// DVFSFreq inverts the DVFS law for saturated servers: the frequency at
// which dynamic power falls to ratio ∈ (0, 1] of its full-frequency
// value, ratio^(1/DVFSExponent). The exponent is below 1/2 and has no
// integer part, so for any ratio in (0, 1] math.Pow reduces to exactly
// this Exp/Log product; TestDVFSClosedForms pins the two bit for bit.
func DVFSFreq(ratio float64) float64 {
	return math.Exp((1 / DVFSExponent) * math.Log(ratio))
}

// Power returns the draw of a server running at demanded utilization
// util ∈ [0,1] with its clock scaled to freq ∈ (0,1]. When demand exceeds
// the scaled capacity the server saturates at the capped frequency.
func (m ServerModel) Power(util, freq float64) units.Watts {
	return m.PowerCoef(freq).Power(util)
}

// PowerCoef holds the frequency-dependent factors of the power model,
// precomputed so a batch of servers sharing one frequency (a rack under a
// single DVFS cap) evaluates Power without a math.Pow per server. The
// per-utilization arithmetic is exactly Power's, so batched and direct
// evaluation are bit-identical.
type PowerCoef struct {
	freq  float64 // clamped frequency
	scale float64 // freq^(DVFSExponent-1)
	idle  units.Watts
	span  float64 // float64(Peak - Idle)
}

// PowerCoef precomputes the evaluation coefficients for one frequency.
func (m ServerModel) PowerCoef(freq float64) PowerCoef {
	f := clampFreq(freq)
	// Dynamic power scales with the voltage/frequency operating point.
	// For f in [0.1, 1) math.Pow(f, DVFSExponent-1) is exactly f times
	// Exp(dvfsFrac·Log(f)): Pow's Frexp/Ldexp bookkeeping for the integer
	// part 1 rescales by a power of two, which rounds nothing at these
	// magnitudes, and none of its special cases applies
	// (TestDVFSClosedForms). Pow(1, y) == 1 exactly, so the uncapped fast
	// path skips both calls without changing a bit.
	scale := 1.0
	if f != 1 {
		scale = f * math.Exp(dvfsFrac*math.Log(f))
	}
	return PowerCoef{freq: f, scale: scale, idle: m.Idle, span: float64(m.Peak - m.Idle)}
}

// Power returns the draw at the coefficient's frequency for one server's
// demanded utilization.
func (c PowerCoef) Power(util float64) units.Watts {
	util = clamp01(util)
	delivered := min(util, c.freq)
	// Dynamic power scales with delivered work and with the
	// voltage/frequency operating point.
	return c.idle + units.Watts(c.span*delivered*c.scale)
}

// FullPower evaluates the power model at full frequency, where
// PowerCoef.Power's min of the clamped utilization with 1 and its ×1
// scale are exact no-ops: idle + span·clamp01(util). The engine
// evaluates every server at full frequency every tick, before planning;
// TestFullPowerExact pins it bit for bit to PowerCoef(1).Power.
type FullPower struct {
	idle units.Watts
	span float64 // float64(Peak - Idle)
}

// FullPower returns the model's full-frequency evaluator.
func (m ServerModel) FullPower() FullPower {
	return FullPower{idle: m.Idle, span: float64(m.Peak - m.Idle)}
}

// Power returns the full-frequency draw for one server's demanded
// utilization.
func (f FullPower) Power(util float64) units.Watts {
	return f.idle + units.Watts(f.span*clamp01(util))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func clampFreq(f float64) float64 {
	// Real DVFS floors well above zero; 0.1 keeps the model sane if a
	// scheme misbehaves.
	if f < 0.1 {
		return 0.1
	}
	if f > 1 {
		return 1
	}
	return f
}
