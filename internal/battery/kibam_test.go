package battery

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func newTestKiBaM(t *testing.T, cfg KiBaMConfig) *KiBaM {
	t.Helper()
	b, err := NewKiBaM(cfg)
	if err != nil {
		t.Fatalf("NewKiBaM: %v", err)
	}
	return b
}

func TestKiBaMConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  KiBaMConfig
	}{
		{"zero capacity", KiBaMConfig{}},
		{"negative capacity", KiBaMConfig{Capacity: -1}},
		{"c too big", KiBaMConfig{Capacity: 1000, C: 1.5}},
		{"c negative", KiBaMConfig{Capacity: 1000, C: -0.1}},
		{"k negative", KiBaMConfig{Capacity: 1000, K: -1}},
		{"soc out of range", KiBaMConfig{Capacity: 1000, InitialSOC: 1.5}},
		{"negative max discharge", KiBaMConfig{Capacity: 1000, MaxDischarge: -5}},
		{"negative max charge", KiBaMConfig{Capacity: 1000, MaxCharge: -5}},
	}
	for _, c := range cases {
		if _, err := NewKiBaM(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestKiBaMStartsFull(t *testing.T) {
	b := newTestKiBaM(t, KiBaMConfig{Capacity: 3600})
	if soc := b.SOC(); math.Abs(soc-1) > 1e-12 {
		t.Fatalf("initial SOC = %v, want 1", soc)
	}
	if av := b.AvailableSOC(); math.Abs(av-1) > 1e-12 {
		t.Fatalf("initial available SOC = %v, want 1", av)
	}
}

func TestKiBaMInitialSOC(t *testing.T) {
	b := newTestKiBaM(t, KiBaMConfig{Capacity: 3600, InitialSOC: 0.5})
	if soc := b.SOC(); math.Abs(soc-0.5) > 1e-12 {
		t.Fatalf("SOC = %v, want 0.5", soc)
	}
}

func TestKiBaMEnergyConservationOnDischarge(t *testing.T) {
	const capacity = 36000
	b := newTestKiBaM(t, KiBaMConfig{Capacity: capacity, MaxDischarge: 1000})
	start := b.SOC() * capacity
	var delivered float64
	for i := 0; i < 100; i++ {
		got := b.Discharge(50, time.Second)
		delivered += float64(got) * 1
	}
	end := b.SOC() * capacity
	if math.Abs((start-end)-delivered) > 1e-6*start {
		t.Fatalf("energy not conserved: stored dropped %v J, delivered %v J", start-end, delivered)
	}
}

func TestKiBaMNeverDeliversMoreThanRequested(t *testing.T) {
	f := func(reqRaw uint16, socRaw uint8) bool {
		req := units.Watts(reqRaw)
		soc := float64(socRaw%100+1) / 100
		b := MustKiBaM(KiBaMConfig{Capacity: 72000, InitialSOC: soc, MaxDischarge: 5000})
		got := b.Discharge(req, time.Second)
		return got >= 0 && got <= req
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKiBaMSOCMonotoneUnderDischarge(t *testing.T) {
	b := newTestKiBaM(t, KiBaMConfig{Capacity: 72000, MaxDischarge: 2000})
	prev := b.SOC()
	for i := 0; i < 500; i++ {
		b.Discharge(500, time.Second)
		soc := b.SOC()
		if soc > prev+1e-12 {
			t.Fatalf("SOC rose during discharge at step %d: %v -> %v", i, prev, soc)
		}
		prev = soc
	}
}

func TestKiBaMRespectsMaxDischargeRating(t *testing.T) {
	b := newTestKiBaM(t, KiBaMConfig{Capacity: 72000, MaxDischarge: 100})
	if got := b.Discharge(1000, time.Second); got > 100 {
		t.Fatalf("delivered %v above the 100 W rating", got)
	}
}

func TestKiBaMRateCapacityEffect(t *testing.T) {
	// At a high discharge rate the battery sustains the load for much less
	// time than nominal-capacity/power would suggest; at a low rate it gets
	// close to nominal. This is the signature KiBaM behaviour the attack
	// exploits.
	const cap_ = units.Joules(72000)
	sustain := func(p units.Watts, tick time.Duration) time.Duration {
		b := MustKiBaM(KiBaMConfig{Capacity: cap_, MaxDischarge: 1e6})
		for elapsed := time.Duration(0); elapsed < 48*time.Hour; elapsed += tick {
			if b.Discharge(p, tick) < p {
				return elapsed
			}
		}
		return 48 * time.Hour
	}
	// Low rate: nominal drain time of 20000 s, an order of magnitude longer
	// than the 1/k ≈ 2200 s well-coupling time constant, so the bound well
	// keeps up and nearly the whole nominal capacity is extracted.
	low := sustain(3.6, time.Second)
	lowFrac := 3.6 * low.Seconds() / float64(cap_)
	if lowFrac < 0.9 {
		t.Errorf("low-rate discharge extracted only %.0f%% of nominal capacity", lowFrac*100)
	}
	// High rate: empty in ~50 s nominal — should extract much less.
	high := sustain(1440, 100*time.Millisecond)
	highFrac := 1440 * high.Seconds() / float64(cap_)
	if highFrac > 0.95*lowFrac {
		t.Errorf("no rate-capacity effect: high-rate extracted %.0f%%, low-rate %.0f%%",
			highFrac*100, lowFrac*100)
	}
}

func TestKiBaMRecoveryEffect(t *testing.T) {
	b := newTestKiBaM(t, KiBaMConfig{Capacity: 72000, MaxDischarge: 1e6})
	// Drain hard until delivery falls short.
	for b.Discharge(1440, time.Second) >= 1440 {
	}
	drained := b.AvailableSOC()
	b.Idle(5 * time.Minute)
	rested := b.AvailableSOC()
	if rested <= drained {
		t.Fatalf("no recovery: available SOC %v after rest vs %v drained", rested, drained)
	}
	// Total SOC must not rise while idle.
	if b.SOC() > 1 {
		t.Fatal("idle created energy")
	}
}

func TestKiBaMIdlePreservesTotalCharge(t *testing.T) {
	b := newTestKiBaM(t, KiBaMConfig{Capacity: 72000, InitialSOC: 0.5})
	before := b.SOC()
	b.Idle(time.Hour)
	after := b.SOC()
	if math.Abs(before-after) > 1e-9 {
		t.Fatalf("idle changed total SOC: %v -> %v", before, after)
	}
}

func TestKiBaMChargeRefills(t *testing.T) {
	const capacity = 36000
	b := newTestKiBaM(t, KiBaMConfig{Capacity: capacity, InitialSOC: 0.3, MaxCharge: 500})
	start := b.SOC()
	var accepted float64
	for i := 0; i < 60; i++ {
		got := b.Charge(200, time.Second)
		accepted += float64(got)
	}
	if b.SOC() <= start {
		t.Fatal("charging did not raise SOC")
	}
	gained := (b.SOC() - start) * capacity
	if math.Abs(gained-accepted) > 1e-6*accepted {
		t.Fatalf("charge energy mismatch: gained %v J, accepted %v J", gained, accepted)
	}
}

func TestKiBaMChargeNeverOverfills(t *testing.T) {
	b := newTestKiBaM(t, KiBaMConfig{Capacity: 3600, InitialSOC: 0.95, MaxCharge: 1e6})
	for i := 0; i < 1000; i++ {
		b.Charge(10000, time.Second)
	}
	if soc := b.SOC(); soc > 1+1e-9 {
		t.Fatalf("SOC exceeded 1: %v", soc)
	}
}

func TestKiBaMChargeRespectsRating(t *testing.T) {
	b := newTestKiBaM(t, KiBaMConfig{Capacity: 72000, InitialSOC: 0.1, MaxCharge: 50})
	if got := b.Charge(500, time.Second); got > 50 {
		t.Fatalf("accepted %v above the 50 W rating", got)
	}
}

func TestKiBaMZeroAndNegativeRequests(t *testing.T) {
	b := newTestKiBaM(t, KiBaMConfig{Capacity: 3600})
	if got := b.Discharge(0, time.Second); got != 0 {
		t.Error("Discharge(0) should deliver 0")
	}
	if got := b.Discharge(-5, time.Second); got != 0 {
		t.Error("Discharge(-5) should deliver 0")
	}
	if got := b.Charge(0, time.Second); got != 0 {
		t.Error("Charge(0) should accept 0")
	}
	if got := b.Discharge(100, 0); got != 0 {
		t.Error("zero-duration discharge should deliver 0")
	}
}

func TestKiBaMEmptyBatteryDeliversNothing(t *testing.T) {
	b := newTestKiBaM(t, KiBaMConfig{Capacity: 3600, MaxDischarge: 1e6})
	// Exhaust it completely.
	for i := 0; i < 10000; i++ {
		if b.Discharge(1000, time.Second) == 0 {
			break
		}
	}
	if got := b.Discharge(100, time.Second); got > 1 {
		t.Fatalf("near-empty battery delivered %v", got)
	}
	if b.SOC() < -1e-9 {
		t.Fatalf("SOC went negative: %v", b.SOC())
	}
}

func TestSizeForAutonomy(t *testing.T) {
	const load = units.Watts(5210)
	cap_ := SizeForAutonomy(load, 50*time.Second, 0, 0)
	if cap_ <= load.Energy(50*time.Second) {
		t.Fatalf("sized capacity %v should exceed the naive %v (rate-capacity effect)",
			cap_, load.Energy(50*time.Second))
	}
	// Verify the sized battery actually sustains the load for the autonomy.
	b := MustKiBaM(KiBaMConfig{Capacity: cap_, MaxDischarge: load * 10})
	const tick = 100 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < 50*time.Second; elapsed += tick {
		if got := b.Discharge(load, tick); got < load {
			t.Fatalf("sized battery failed after %v (delivered %v)", elapsed, got)
		}
	}
}

func TestSizeForAutonomyDegenerate(t *testing.T) {
	if got := SizeForAutonomy(0, time.Minute, 0, 0); got != 0 {
		t.Errorf("zero load should size 0, got %v", got)
	}
	if got := SizeForAutonomy(100, 0, 0, 0); got != 0 {
		t.Errorf("zero autonomy should size 0, got %v", got)
	}
}

func TestMustKiBaMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustKiBaM with bad config should panic")
		}
	}()
	MustKiBaM(KiBaMConfig{})
}
