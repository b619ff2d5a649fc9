// Package powersim models the electrical substrate of a data center
// cluster: server power draw (with DVFS capping), rack and cluster power
// distribution units with per-outlet soft limits (the oversubscription
// model of the paper's §2.2), and circuit breakers with inverse-time trip
// behaviour.
package powersim

import (
	"fmt"
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
	// DVFSExponent relates frequency scaling to dynamic power:
	// dynamic ∝ freq^DVFSExponent. 0 selects 2.4 (near-cubic voltage
	// scaling tempered by uncore power).
	DVFSExponent float64
}

// DL585G5 is the evaluated server model.
var DL585G5 = ServerModel{Idle: 299, Peak: 521}

// dvfsExponent returns the effective exponent.
func (m ServerModel) dvfsExponent() float64 {
	if m.DVFSExponent == 0 {
		return 2.4
	}
	return m.DVFSExponent
}

// Validate reports a configuration error, if any.
func (m ServerModel) Validate() error {
	if m.Idle < 0 || m.Peak <= 0 || m.Peak < m.Idle {
		return fmt.Errorf("powersim: invalid server model idle=%v peak=%v", m.Idle, m.Peak)
	}
	return nil
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
	scale float64 // Pow(freq, dvfsExponent-1)
	idle  units.Watts
	span  float64 // float64(Peak - Idle)
}

// PowerCoef precomputes the evaluation coefficients for one frequency.
func (m ServerModel) PowerCoef(freq float64) PowerCoef {
	f := clampFreq(freq)
	// Dynamic power scales with the voltage/frequency operating point.
	// math.Pow(1, y) == 1 exactly for any y, so the uncapped fast path
	// skips the call without changing a bit.
	scale := 1.0
	if f != 1 {
		scale = math.Pow(f, m.dvfsExponent()-1)
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

// Throughput returns the fraction of demanded work completed at the given
// frequency cap: 1 when demand fits under the cap, freq/util when it
// saturates.
func (m ServerModel) Throughput(util, freq float64) float64 {
	util = clamp01(util)
	freq = clampFreq(freq)
	if util <= 0 {
		return 1
	}
	return min(util, freq) / util
}

// UtilizationFor inverts Power at full frequency: the utilization that
// draws p. It clamps to [0,1].
func (m ServerModel) UtilizationFor(p units.Watts) float64 {
	if m.Peak == m.Idle {
		return 0
	}
	return clamp01(float64(p-m.Idle) / float64(m.Peak-m.Idle))
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
