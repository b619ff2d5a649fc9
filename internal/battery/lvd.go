package battery

import (
	"time"

	"repro/internal/units"
)

// LVD wraps a store with a low-voltage disconnect: once the store drops
// below the cutoff SOC it is isolated from the load (discharge yields
// nothing) until recharged above the reconnect threshold. This mirrors the
// independent LVD device Facebook's battery cabinet uses (disconnect at
// 1.75 V/cell) and is exactly the behaviour a Phase-I attacker exploits:
// a disconnected battery leaves the rack with no spike protection at all.
type LVD struct {
	inner        Store
	cutoff       float64
	reconnect    float64
	disconnected bool
}

// NewLVD wraps inner with disconnect at cutoff SOC and reconnection at
// reconnect SOC. reconnect must be >= cutoff; the gap provides hysteresis.
// Typical values: cutoff 0.05, reconnect 0.20.
func NewLVD(inner Store, cutoff, reconnect float64) *LVD {
	if cutoff < 0 {
		cutoff = 0
	}
	if reconnect < cutoff {
		reconnect = cutoff
	}
	return &LVD{
		inner:        inner,
		cutoff:       cutoff,
		reconnect:    reconnect,
		disconnected: inner.SOC() <= cutoff,
	}
}

// Discharge implements Store. A disconnected battery delivers nothing.
func (l *LVD) Discharge(req units.Watts, dt time.Duration) units.Watts {
	if l.disconnected {
		l.inner.Idle(dt)
		return 0
	}
	got := l.inner.Discharge(req, dt)
	if l.inner.SOC() <= l.cutoff {
		l.disconnected = true
	}
	return got
}

// Charge implements Store. Charging is always permitted and may reconnect
// the battery.
func (l *LVD) Charge(offered units.Watts, dt time.Duration) units.Watts {
	got := l.inner.Charge(offered, dt)
	if l.disconnected && l.inner.SOC() >= l.reconnect {
		l.disconnected = false
	}
	return got
}

// Idle implements Store.
func (l *LVD) Idle(dt time.Duration) {
	l.inner.Idle(dt)
	// Recovery alone can lift the available well, but total SOC does not
	// rise while idle, so the disconnect state stands until recharged.
}

// SOC implements Store.
func (l *LVD) SOC() float64 { return l.inner.SOC() }

// MaxDischarge implements Store. A disconnected battery cannot deliver.
func (l *LVD) MaxDischarge() units.Watts {
	if l.disconnected {
		return 0
	}
	return l.inner.MaxDischarge()
}

// MaxCharge implements Store.
func (l *LVD) MaxCharge() units.Watts { return l.inner.MaxCharge() }

// Deliverable implements Store. A disconnected battery can deliver
// nothing.
func (l *LVD) Deliverable(dt time.Duration) units.Watts {
	if l.disconnected {
		return 0
	}
	return l.inner.Deliverable(dt)
}

// Disconnected reports whether the LVD has isolated the battery.
func (l *LVD) Disconnected() bool { return l.disconnected }

// Inner returns the wrapped store.
func (l *LVD) Inner() Store { return l.inner }
