package battery

import (
	"time"

	"repro/internal/units"
)

// Presets reproducing the storage hardware named in the paper's
// methodology: the Facebook Open-Compute V1 rack battery cabinet the
// evaluation assumes (50 s autonomy at full rack load, LVD-protected).

// RackCabinetAutonomy is the full-load autonomy of the evaluated rack
// battery cabinet.
const RackCabinetAutonomy = 50 * time.Second

// NewRackCabinet builds a Facebook-V1-style per-rack battery cabinet sized
// to sustain fullLoad for RackCabinetAutonomy, wrapped in an LVD.
func NewRackCabinet(fullLoad units.Watts) *LVD {
	cap_ := SizeForAutonomy(fullLoad, RackCabinetAutonomy, 0, 0)
	b := MustKiBaM(KiBaMConfig{
		Capacity: cap_,
		// The cabinet must deliver full rack load with margin.
		MaxDischarge: fullLoad * 2,
		// Recharge in roughly 15 minutes of full headroom: cabinets are
		// built for cyclic peak-shaving duty, not trickle standby.
		MaxCharge: units.Watts(float64(cap_) / 900),
	})
	return NewLVD(b, 0.05, 0.20)
}

// NewMicroDEB builds the μDEB super-capacitor bank for a rack. capacity is
// the usable energy; the paper's example sizes 0.35 Wh for 0.5 s of
// current sharing on a 5 kW rack (power rating ≈ rack nameplate).
func NewMicroDEB(capacity units.Joules, rackNameplate units.Watts) *SuperCap {
	return MustSuperCap(SuperCapConfig{
		Capacity: capacity,
		MaxPower: rackNameplate * 2,
	})
}
