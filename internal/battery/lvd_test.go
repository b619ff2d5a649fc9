package battery

import (
	"testing"
	"time"

	"repro/internal/units"
)

func drainTo(t *testing.T, b *KiBaM, soc float64) {
	t.Helper()
	for i := 0; b.SOC() > soc; i++ {
		if got := b.Discharge(b.MaxDischarge(), time.Second); got == 0 {
			return
		}
		if i > 1_000_000 {
			t.Fatal("drainTo did not converge")
		}
	}
}

// newTestCabinet is a 10 Wh rack cabinet for a 1 kW rack: it discharges
// at up to 2 kW and charges at up to 40 W.
func newTestCabinet(soc float64) *KiBaM { return NewRackCabinet(1000, 36000, soc) }

func TestLVDDisconnectsAtCutoff(t *testing.T) {
	cab := newTestCabinet(0)
	drainTo(t, cab, 0.02)
	if soc := cab.SOC(); soc > lvdCutoff || soc < 0.04 {
		t.Fatalf("drain stopped at SOC %v, want just under the %v cutoff", soc, lvdCutoff)
	}
	if got := cab.Discharge(100, time.Second); got != 0 {
		t.Fatalf("disconnected battery delivered %v", got)
	}
	if cab.MaxDischarge() != 0 || cab.Deliverable(time.Second) != 0 {
		t.Fatal("disconnected battery should advertise 0 discharge capability")
	}
}

func TestLVDReconnectHysteresis(t *testing.T) {
	cab := newTestCabinet(0)
	drainTo(t, cab, lvdCutoff)
	// Charge to above the cutoff but below reconnect: stays disconnected.
	for cab.SOC() < 0.15 {
		cab.Charge(1000, time.Second)
	}
	if cab.MaxDischarge() != 0 {
		t.Fatal("LVD reconnected below the reconnect threshold")
	}
	// Charge past the reconnect threshold: reconnects.
	for cab.SOC() < lvdReconnect {
		cab.Charge(1000, time.Second)
	}
	if cab.MaxDischarge() != 2000 {
		t.Fatal("LVD failed to reconnect above threshold")
	}
	if got := cab.Discharge(100, time.Second); got != 100 {
		t.Fatalf("reconnected battery delivered %v, want 100", got)
	}
}

func TestLVDStartsDisconnectedWhenEmpty(t *testing.T) {
	if cab := newTestCabinet(0.01); cab.Discharge(100, time.Second) != 0 || cab.MaxDischarge() != 0 {
		t.Fatal("a cabinet built below the cutoff should start disconnected")
	}
	// A battery from NewKiBaM has no disconnect: SizeForAutonomy's drain
	// search runs it empty.
	b := MustKiBaM(KiBaMConfig{Capacity: 36000, InitialSOC: 0.01})
	if b.Discharge(100, time.Second) != 100 || b.MaxDischarge() == 0 {
		t.Fatal("a bare KiBaM should deliver below the cutoff")
	}
}

func TestLVDIdleDoesNotReconnect(t *testing.T) {
	cab := newTestCabinet(0)
	drainTo(t, cab, lvdCutoff)
	cab.Idle(time.Hour)
	if cab.MaxDischarge() != 0 {
		t.Fatal("rest alone must not reconnect an LVD (total SOC unchanged)")
	}
}

func TestLVDPassThroughs(t *testing.T) {
	cab := newTestCabinet(0)
	if cab.MaxDischarge() != 2000 || cab.MaxCharge() != 40 || cab.Deliverable(time.Second) != 2000 {
		t.Fatal("a connected cabinet should pass its ratings through")
	}
	drainTo(t, cab, lvdCutoff)
	// Disconnected, it cannot deliver, and still charges at its rating.
	if cab.MaxDischarge() != 0 || cab.Deliverable(time.Second) != 0 || cab.MaxCharge() != 40 {
		t.Fatal("a disconnected cabinet should read 0 discharge and its charge rating")
	}
}

func TestRackCabinetPreset(t *testing.T) {
	const rackLoad = units.Watts(5210)
	cab := NewRackCabinet(rackLoad, 0, 0)
	capacity := SizeForAutonomy(rackLoad, RackCabinetAutonomy, 0, 0)
	if cab.SOC() != 1 || cab.MaxDischarge() != 2*rackLoad || cab.MaxCharge() != units.Watts(float64(capacity)/900) {
		t.Fatalf("cabinet built at SOC %v rated %v out, %v in", cab.SOC(), cab.MaxDischarge(), cab.MaxCharge())
	}
	// Must sustain full rack load for the advertised autonomy.
	const tick = 100 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < RackCabinetAutonomy; elapsed += tick {
		if got := cab.Discharge(rackLoad, tick); got < rackLoad {
			t.Fatalf("cabinet failed at %v (delivered %v)", elapsed, got)
		}
	}
}

func TestMicroDEBPreset(t *testing.T) {
	// The paper's example: 0.35 Wh shaves 0.5 s of current sharing on a
	// 5 kW rack. Our μDEB must deliver ~2.5 kW for 0.5 s from 0.35 Wh.
	u := NewMicroDEB(units.WattHours(0.35).Joules(), 5000)
	got := u.Discharge(2500, 500*time.Millisecond)
	if got < 2500 {
		t.Fatalf("μDEB delivered %v, want 2.5 kW for the full half second", got)
	}
}
