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

// NewRackCabinet builds a Facebook-V1-style per-rack battery cabinet with
// its low-voltage disconnect armed; a cabinet built at or below the
// cutoff starts disconnected. capacity 0 sizes the cabinet to sustain
// fullLoad for RackCabinetAutonomy, and soc 0 means full. The cabinet
// delivers up to twice fullLoad and recharges at capacity/900 s.
func NewRackCabinet(fullLoad units.Watts, capacity units.Joules, soc float64) *KiBaM {
	if capacity == 0 {
		capacity = SizeForAutonomy(fullLoad, RackCabinetAutonomy, 0, 0)
	}
	b := MustKiBaM(KiBaMConfig{
		Capacity: capacity,
		// The cabinet must deliver full rack load with margin.
		MaxDischarge: fullLoad * 2,
		// Recharge in roughly 15 minutes of full headroom: cabinets are
		// built for cyclic peak-shaving duty, not trickle standby.
		MaxCharge:  units.Watts(float64(capacity) / 900),
		InitialSOC: soc,
	})
	b.lvd = true
	b.disconnected = b.soc <= lvdCutoff
	return b
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
