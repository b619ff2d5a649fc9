package powersim

import (
	"testing"

	"repro/internal/units"
)

func TestTopologyEfficiencyOrdering(t *testing.T) {
	// The paper's motivation: DEB options waste far less than
	// double-conversion UPSs in the normal path.
	prev := -1.0
	for _, topo := range Topologies() {
		m := topo.Model()
		if m.PathEfficiency <= prev {
			t.Fatalf("path efficiency should increase through the options, %v broke it", topo)
		}
		prev = m.PathEfficiency
		if m.PathEfficiency <= 0 || m.PathEfficiency > 1 {
			t.Fatalf("%v path efficiency out of range: %v", topo, m.PathEfficiency)
		}
		if m.BackupEfficiency <= 0 || m.BackupEfficiency > 1 {
			t.Fatalf("%v backup efficiency out of range: %v", topo, m.BackupEfficiency)
		}
	}
}

func TestOnlyCentralUPSIsSPOF(t *testing.T) {
	for _, topo := range Topologies() {
		want := topo == CentralUPS
		if got := topo.Model().SPOF; got != want {
			t.Errorf("%v SPOF = %v, want %v", topo, got, want)
		}
	}
}

func TestConversionLoss(t *testing.T) {
	// Central UPS at 88% efficiency serving 880 kW draws 1 MW: 120 kW lost.
	loss := CentralUPS.ConversionLoss(880 * units.Kilowatt)
	if loss < 119*units.Kilowatt || loss > 121*units.Kilowatt {
		t.Fatalf("loss = %v, want ~120 kW", loss)
	}
	if got := CentralUPS.ConversionLoss(0); got != 0 {
		t.Fatalf("zero load loss = %v", got)
	}
	if got := CentralUPS.ConversionLoss(-100); got != 0 {
		t.Fatalf("negative load loss = %v", got)
	}
	// DEB options lose an order of magnitude less.
	if TopOfRackDEB.ConversionLoss(880*units.Kilowatt) > loss/10 {
		t.Fatal("DEB conversion loss should be <10% of central UPS loss")
	}
}

func TestAnnualLoss(t *testing.T) {
	// The annual loss of a central UPS on a 1 MW load is hundreds of MWh.
	kwh := CentralUPS.AnnualLossKWh(units.Megawatt)
	if kwh < 1e6 || kwh > 1.5e6 {
		t.Fatalf("annual loss = %v kWh, want ~1.2M", kwh)
	}
}

func TestTopologyStrings(t *testing.T) {
	names := map[Topology]string{
		CentralUPS: "central-UPS", EndOfRowUPS: "end-of-row-UPS",
		TopOfRackDEB: "top-of-rack-DEB", PerNodeDEB: "per-node-DEB",
	}
	for topo, want := range names {
		if topo.String() != want {
			t.Errorf("%d name = %q, want %q", int(topo), topo.String(), want)
		}
	}
	if Topology(9).String() != "Topology(9)" {
		t.Error("unknown topology formatting wrong")
	}
	if Topology(9).Model().PathEfficiency != 1 {
		t.Error("unknown topology should be lossless")
	}
}
