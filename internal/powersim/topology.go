package powersim

import (
	"fmt"

	"repro/internal/units"
)

// Backup power topologies, the four deployment options of the paper's
// Figure 3. The efficiency difference is the paper's §2 motivation for
// DEB: a double-conversion central UPS loses power on every watt all the
// time, while DC-coupled distributed batteries sit out of the power path.
type Topology int

// The four deployment options.
const (
	// CentralUPS is a facility-level double-conversion (AC→DC→AC) UPS.
	CentralUPS Topology = iota
	// EndOfRowUPS is a PDU-level double-conversion UPS (20-200 kW).
	EndOfRowUPS
	// TopOfRackDEB is a rack battery cabinet on the DC bus.
	TopOfRackDEB
	// PerNodeDEB is a per-server battery on the PSU's DC output.
	PerNodeDEB
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case CentralUPS:
		return "central-UPS"
	case EndOfRowUPS:
		return "end-of-row-UPS"
	case TopOfRackDEB:
		return "top-of-rack-DEB"
	case PerNodeDEB:
		return "per-node-DEB"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Topologies lists the four options in the paper's order.
func Topologies() []Topology {
	return []Topology{CentralUPS, EndOfRowUPS, TopOfRackDEB, PerNodeDEB}
}

// TopologyModel captures the conversion chain of one deployment option.
type TopologyModel struct {
	// PathEfficiency is the fraction of input power that reaches the
	// server PSU during normal operation (double-conversion UPSs sit in
	// the path; DEB options bypass it).
	PathEfficiency float64
	// BackupEfficiency is the fraction of stored energy that reaches the
	// load during backup operation.
	BackupEfficiency float64
	// UnitScale is the typical unit size (for documentation/reports).
	UnitScale units.Watts
	// SPOF reports whether the option is a single point of failure for
	// the whole facility.
	SPOF bool
}

// Model returns the efficiency model of a topology. Values follow the
// industry figures the paper's citations use: online double-conversion
// UPSs run ~88-92% efficient at typical load; DC-coupled batteries leave
// the normal path untouched and discharge at ~96%.
func (t Topology) Model() TopologyModel {
	switch t {
	case CentralUPS:
		return TopologyModel{PathEfficiency: 0.88, BackupEfficiency: 0.85, UnitScale: 2 * units.Megawatt, SPOF: true}
	case EndOfRowUPS:
		return TopologyModel{PathEfficiency: 0.90, BackupEfficiency: 0.87, UnitScale: 100 * units.Kilowatt, SPOF: false}
	case TopOfRackDEB:
		return TopologyModel{PathEfficiency: 0.995, BackupEfficiency: 0.96, UnitScale: 3 * units.Kilowatt, SPOF: false}
	case PerNodeDEB:
		return TopologyModel{PathEfficiency: 0.998, BackupEfficiency: 0.97, UnitScale: 500, SPOF: false}
	default:
		return TopologyModel{PathEfficiency: 1, BackupEfficiency: 1}
	}
}

// ConversionLoss returns the power lost in the backup path while serving
// load during normal operation.
func (t Topology) ConversionLoss(load units.Watts) units.Watts {
	m := t.Model()
	if load <= 0 {
		return 0
	}
	return units.Watts(float64(load) * (1 - m.PathEfficiency) / m.PathEfficiency)
}

// AnnualLossKWh returns the energy wasted per year serving a constant
// load — the number the paper's PUE-improvement citations (Microsoft's
// "up to 15% PUE improvement") are about.
func (t Topology) AnnualLossKWh(load units.Watts) float64 {
	const hoursPerYear = 8760
	return float64(t.ConversionLoss(load)) * hoursPerYear / 1000
}
