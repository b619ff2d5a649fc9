package battery

import (
	"testing"
	"time"

	"repro/internal/units"
)

func drainTo(t *testing.T, s Store, soc float64) {
	t.Helper()
	for i := 0; s.SOC() > soc; i++ {
		if got := s.Discharge(s.MaxDischarge(), time.Second); got == 0 {
			return
		}
		if i > 1_000_000 {
			t.Fatal("drainTo did not converge")
		}
	}
}

func TestLVDDisconnectsAtCutoff(t *testing.T) {
	inner := MustKiBaM(KiBaMConfig{Capacity: 36000, MaxDischarge: 1e6, MaxCharge: 1e6})
	l := NewLVD(inner, 0.10, 0.30)
	drainTo(t, l, 0.10)
	if !l.Disconnected() {
		t.Fatal("LVD should have disconnected at cutoff")
	}
	if got := l.Discharge(100, time.Second); got != 0 {
		t.Fatalf("disconnected battery delivered %v", got)
	}
	if l.MaxDischarge() != 0 {
		t.Fatal("disconnected battery should advertise 0 discharge capability")
	}
}

func TestLVDReconnectHysteresis(t *testing.T) {
	inner := MustKiBaM(KiBaMConfig{Capacity: 36000, MaxDischarge: 1e6, MaxCharge: 1e6})
	l := NewLVD(inner, 0.10, 0.30)
	drainTo(t, l, 0.10)
	// Charge to just above cutoff but below reconnect: stays disconnected.
	for l.SOC() < 0.15 {
		l.Charge(1000, time.Second)
	}
	if !l.Disconnected() {
		t.Fatal("LVD reconnected below the reconnect threshold")
	}
	// Charge past the reconnect threshold: reconnects.
	for l.SOC() < 0.30 {
		l.Charge(1000, time.Second)
	}
	if l.Disconnected() {
		t.Fatal("LVD failed to reconnect above threshold")
	}
	if got := l.Discharge(100, time.Second); got != 100 {
		t.Fatalf("reconnected battery delivered %v, want 100", got)
	}
}

func TestLVDStartsDisconnectedWhenEmpty(t *testing.T) {
	inner := MustKiBaM(KiBaMConfig{Capacity: 36000, InitialSOC: 0.01})
	l := NewLVD(inner, 0.05, 0.20)
	if !l.Disconnected() {
		t.Fatal("LVD wrapping an empty battery should start disconnected")
	}
}

func TestLVDIdleDoesNotReconnect(t *testing.T) {
	inner := MustKiBaM(KiBaMConfig{Capacity: 36000, MaxDischarge: 1e6})
	l := NewLVD(inner, 0.10, 0.30)
	drainTo(t, l, 0.10)
	l.Idle(time.Hour)
	if !l.Disconnected() {
		t.Fatal("rest alone must not reconnect an LVD (total SOC unchanged)")
	}
}

func TestLVDParameterNormalization(t *testing.T) {
	inner := MustKiBaM(KiBaMConfig{Capacity: 36000})
	// Negative cutoff clamps to 0; reconnect below cutoff clamps up.
	l := NewLVD(inner, -1, -2)
	if l.cutoff != 0 || l.reconnect != 0 {
		t.Fatalf("normalization failed: cutoff=%v reconnect=%v", l.cutoff, l.reconnect)
	}
}

func TestLVDPassThroughs(t *testing.T) {
	inner := MustKiBaM(KiBaMConfig{Capacity: 36000, MaxDischarge: 777, MaxCharge: 55})
	l := NewLVD(inner, 0.05, 0.20)
	if l.MaxDischarge() != 777 {
		t.Error("MaxDischarge pass-through wrong")
	}
	if l.MaxCharge() != 55 {
		t.Error("MaxCharge pass-through wrong")
	}
	if l.Inner() != Store(inner) {
		t.Error("Inner should return the wrapped store")
	}
}

func TestRackCabinetPreset(t *testing.T) {
	const rackLoad = units.Watts(5210)
	cab := NewRackCabinet(rackLoad)
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
