package padsec

import (
	"bytes"
	"testing"
	"time"
)

// The facade tests exercise the public API end to end, the way the
// examples and downstream users do.

func TestFacadeQuickAttackRun(t *testing.T) {
	cfg := ClusterConfig{
		Racks:          2,
		ServersPerRack: 5,
		Duration:       5 * time.Minute,
		Tick:           200 * time.Millisecond,
		Background:     FlatBackground(10, 0.5),
		Attacks: []AttackSpec{NewAttack(3, AttackConfig{
			Profile:      CPUIntensive,
			PrepDuration: time.Second,
			MaxPhaseI:    2 * time.Minute,
		})},
		StopOnTrip: true,
	}
	conv, err := Run(cfg, NewConv(SchemeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !conv.Tripped {
		t.Fatal("undefended cluster should trip under this attack")
	}

	cfg.MicroDEBFactory = NewMicroDEBFactory(0.01)
	pad, err := Run(cfg, NewPAD(SchemeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if pad.SurvivalTime <= conv.SurvivalTime {
		t.Fatalf("PAD (%v) should outlive Conv (%v)", pad.SurvivalTime, conv.SurvivalTime)
	}
}

// TestFacadeSchemeLearnsShape: a scheme built without options plans for
// the racks of the cluster it runs on. Planning for 10-server racks on
// this 4×5 cluster, PAD shed 2.7% of its servers; planning for 5, none.
func TestFacadeSchemeLearnsShape(t *testing.T) {
	cfg := ClusterConfig{
		Racks:          4,
		ServersPerRack: 5,
		Duration:       20 * time.Minute,
		Background:     FlatBackground(20, 0.62),
		Attacks: []AttackSpec{NewAttack(3, AttackConfig{
			Profile:      CPUIntensive,
			PrepDuration: time.Second,
			MaxPhaseI:    2 * time.Minute,
		})},
		MicroDEBFactory: NewMicroDEBFactory(0.01),
	}
	res, err := Run(cfg, NewPAD(SchemeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tripped || res.MeanShedRatio != 0 {
		t.Fatalf("PAD on 4x5: tripped %v, mean shed ratio %v; want no trip and no shedding",
			res.Tripped, res.MeanShedRatio)
	}
}

func TestFacadeAllSchemesConstruct(t *testing.T) {
	for _, mk := range []func(SchemeOptions) Scheme{
		NewConv, NewPS, NewPSPC, NewVDEB, NewUDEB, NewPAD,
	} {
		s := mk(SchemeOptions{})
		if s.Name() == "" {
			t.Error("scheme without a name")
		}
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	tr, err := GenerateTrace(TraceConfig{Machines: 10, Horizon: 2 * time.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Machines != tr.Machines || len(back.Tasks) != len(tr.Tasks) {
		t.Fatalf("round trip changed the trace: %d/%d tasks", len(back.Tasks), len(tr.Tasks))
	}
	bg, err := TraceBackground(tr, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(bg) != 10 {
		t.Fatalf("background series = %d, want 10", len(bg))
	}
}

func TestFacadeBatteryConstruction(t *testing.T) {
	b := NewRackBattery(5210)
	if b.SOC() != 1 {
		t.Fatal("rack battery should start full")
	}
	if got := b.Discharge(5210, time.Second); got < 5210 {
		t.Fatalf("fresh cabinet delivered %v of 5210 W", got)
	}
	f := NewMicroDEBFactory(0.01)
	u := f(5210, 3900)
	// A full bank passes draw under its threshold, the rack budget, and
	// shaves a spike down to it.
	if u.SOC() != 1 || u.Shave(3800, time.Second) != 3800 || u.Shave(4400, time.Second) != 3900 {
		t.Fatal("μDEB factory produced a bad bank")
	}
}

func TestFacadeFlatBackground(t *testing.T) {
	bg := FlatBackground(4, 0.3)
	if len(bg) != 4 {
		t.Fatalf("series = %d", len(bg))
	}
	for _, s := range bg {
		if s.Interp(30*time.Minute) != 0.3 {
			t.Fatal("background not flat at 0.3")
		}
	}
}

func TestFacadeExperimentRunner(t *testing.T) {
	r, err := Fig12(ExperimentParams{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dense.Len() == 0 {
		t.Fatal("experiment returned no data")
	}
}

func TestFacadeVirusExports(t *testing.T) {
	if CPUIntensive.Name != "CPU" || MemIntensive.Name != "Mem" || IOIntensive.Name != "IO" {
		t.Fatal("virus profile exports wrong")
	}
	if DenseAttack.SpikesPerMinute <= SparseAttack.SpikesPerMinute {
		t.Fatal("dense attack should fire more often than sparse")
	}
	if Level1 >= Level2 || Level2 >= Level3 {
		t.Fatal("security levels should be ordered")
	}
}
