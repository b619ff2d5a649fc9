package core

import "fmt"

// Level is a PAD hierarchical security level (Figure 9).
type Level int

// The three security levels.
const (
	// Level1 — Normal: shave visible peaks with the vDEB pool.
	Level1 Level = 1
	// Level2 — Minor Incident: the vDEB pool is drained; watch the μDEB
	// and collect load information for inspection.
	Level2 Level = 2
	// Level3 — Emergency: both backups exhausted; shed or migrate load.
	Level3 Level = 3
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Level1:
		return "L1-Normal"
	case Level2:
		return "L2-MinorIncident"
	case Level3:
		return "L3-Emergency"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// PolicyInputs are the three signals the security policy evaluates.
type PolicyInputs struct {
	// VDEBSOC is the virtual pool's mean state of charge in [0, 1].
	VDEBSOC float64
	// MicroSOC is the μDEB bank state of charge in [0, 1].
	MicroSOC float64
	// VisiblePeak reports whether a visible power peak is currently
	// identified (VP > 0 in Figure 9).
	VisiblePeak bool
}

// Policy is the hierarchical emergency-handling state machine. Hysteresis
// thresholds separate "empty" from "recharged" so the level does not
// chatter at a boundary.
type Policy struct {
	// EmptyBelow is the SOC at or below which a backup counts as empty.
	// 0 selects 0.05.
	EmptyBelow float64
	// RechargedAbove is the SOC above which a drained backup counts as
	// recharged. 0 selects 0.30.
	RechargedAbove float64
	// StrictInitial selects Level2 (instead of Level1) for the
	// [vDEB>0, μDEB==0] initial states Figure 9 leaves to the
	// organization's security requirement.
	StrictInitial bool

	level Level
}

// NewPolicy creates a policy initialized from the first observed inputs
// per Figure 9's initial-state table.
func NewPolicy(strict bool, initial PolicyInputs) *Policy {
	p := &Policy{EmptyBelow: 0.05, RechargedAbove: 0.30, StrictInitial: strict}
	p.level = p.initialLevel(initial)
	return p
}

func (p *Policy) empty(soc float64) bool     { return soc <= p.EmptyBelow }
func (p *Policy) recharged(soc float64) bool { return soc > p.RechargedAbove }

// initialLevel encodes Figure 9's table over (vDEB>0, μDEB>0, VP>0).
func (p *Policy) initialLevel(in PolicyInputs) Level {
	v := !p.empty(in.VDEBSOC)
	u := !p.empty(in.MicroSOC)
	vp := in.VisiblePeak
	switch {
	case !v && !u:
		return Level3 // rows 000, 001
	case !v && u && !vp:
		return Level2 // row 010
	case !v && u && vp:
		return Level3 // row 011
	case v && !u:
		// rows 100, 101: organization's choice (L1/L2).
		if p.StrictInitial {
			return Level2
		}
		return Level1
	default:
		return Level1 // rows 110, 111
	}
}

// Level returns the current security level.
func (p *Policy) Level() Level { return p.level }

// Step evaluates one tick of inputs and returns the (possibly new) level,
// following Figure 9's transition arrows:
//
//	L1 → L2 when the vDEB pool empties,
//	L2 → L3 when the μDEB empties,
//	L3 → L2 when the μDEB is recharged,
//	L2 → L1 when the vDEB pool is recharged.
func (p *Policy) Step(in PolicyInputs) Level {
	switch p.level {
	case Level1:
		if p.empty(in.VDEBSOC) {
			p.level = Level2
		}
	case Level2:
		switch {
		case p.empty(in.MicroSOC):
			p.level = Level3
		case p.recharged(in.VDEBSOC):
			p.level = Level1
		}
	case Level3:
		if p.recharged(in.MicroSOC) {
			if p.recharged(in.VDEBSOC) {
				p.level = Level1
			} else {
				p.level = Level2
			}
		}
	}
	return p.level
}
