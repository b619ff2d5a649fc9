package powersim

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/units"
)

func stepFor(b *Breaker, load units.Watts, d, tick time.Duration) (tripped bool, at time.Duration) {
	for elapsed := time.Duration(0); elapsed < d; elapsed += tick {
		if b.Step(load, tick) {
			return true, elapsed + tick
		}
	}
	return false, d
}

func TestBreakerHoldsRatedLoadIndefinitely(t *testing.T) {
	b := NewBreaker(1000)
	if tripped, _ := stepFor(b, 1000, time.Hour, time.Second); tripped {
		t.Fatal("breaker tripped at rated load")
	}
	if b.Heat() != 0 {
		t.Fatalf("heat accumulated at rated load: %v", b.Heat())
	}
}

func TestBreakerTripsOnSustainedOverload(t *testing.T) {
	b := NewBreaker(1000)
	tripped, at := stepFor(b, 2000, time.Minute, 100*time.Millisecond)
	if !tripped {
		t.Fatal("breaker did not trip on 2x overload")
	}
	// TripHeat 10, heat rate (4-1)=3/s → ~3.33 s.
	if at < 3*time.Second || at > 4*time.Second {
		t.Fatalf("2x overload tripped at %v, want ~3.3 s", at)
	}
}

func TestBreakerToleratesBriefOverload(t *testing.T) {
	b := NewBreaker(1000)
	// One-second 2x spikes with long recovery between them never trip.
	for i := 0; i < 20; i++ {
		if tripped, _ := stepFor(b, 2000, time.Second, 100*time.Millisecond); tripped {
			t.Fatalf("tripped on brief spike %d", i)
		}
		stepFor(b, 500, 10*time.Minute, time.Second) // cool fully
	}
}

func TestBreakerAccumulatesRepeatedSpikes(t *testing.T) {
	b := NewBreaker(1000)
	// Back-to-back 2x spikes with insufficient cooling eventually trip.
	trippedEver := false
	for i := 0; i < 30 && !trippedEver; i++ {
		tripped, _ := stepFor(b, 2000, time.Second, 100*time.Millisecond)
		trippedEver = tripped
		if !trippedEver {
			tripped, _ = stepFor(b, 500, time.Second, 100*time.Millisecond)
			trippedEver = tripped
		}
	}
	if !trippedEver {
		t.Fatal("dense spike train never tripped the breaker")
	}
}

func TestBreakerInstantTrip(t *testing.T) {
	b := NewBreaker(1000)
	if !b.Step(6000, time.Millisecond) {
		t.Fatal("6x overload should trip instantly")
	}
}

func TestBreakerStaysTripped(t *testing.T) {
	b := NewBreaker(1000)
	b.Step(10000, time.Millisecond)
	if !b.Tripped() {
		t.Fatal("should be tripped")
	}
	if !b.Step(0, time.Second) {
		t.Fatal("tripped breaker should stay tripped at zero load")
	}
}

func TestBreakerReset(t *testing.T) {
	b := NewBreaker(1000)
	b.Step(10000, time.Millisecond)
	b.Reset()
	if b.Tripped() {
		t.Fatal("reset breaker should be closed")
	}
	if b.Heat() != 0 {
		t.Fatal("reset should clear heat")
	}
	if tripped, _ := stepFor(b, 900, time.Minute, time.Second); tripped {
		t.Fatal("reset breaker tripped under rated load")
	}
}

func TestBreakerTrippedAt(t *testing.T) {
	b := NewBreaker(1000)
	stepFor(b, 900, 10*time.Second, time.Second)
	tripped, _ := stepFor(b, 3000, time.Minute, 100*time.Millisecond)
	if !tripped {
		t.Fatal("should have tripped")
	}
	at := b.TrippedAt()
	// 3x overload: heat rate 8/s → ~1.25 s after the 10 s preamble.
	if at < 11*time.Second || at > 12*time.Second {
		t.Fatalf("TrippedAt = %v, want ~11.3 s", at)
	}
}

func TestTimeToTrip(t *testing.T) {
	b := NewBreaker(1000)
	if got := b.TimeToTrip(1.0); got >= 0 {
		t.Errorf("rated load should never trip, got %v", got)
	}
	if got := b.TimeToTrip(0.5); got >= 0 {
		t.Errorf("partial load should never trip, got %v", got)
	}
	if got := b.TimeToTrip(10); got != 0 {
		t.Errorf("instant region should return 0, got %v", got)
	}
	got := b.TimeToTrip(2)
	want := time.Second * 10 / 3
	if got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("TimeToTrip(2) = %v, want ~%v", got, want)
	}
	// Inverse-time: higher overload trips faster.
	if b.TimeToTrip(3) >= b.TimeToTrip(2) {
		t.Error("trip curve is not inverse-time")
	}
}

func TestTimeToTripMatchesSimulation(t *testing.T) {
	for _, ratio := range []float64{1.5, 2, 3, 4} {
		b := NewBreaker(1000)
		predicted := b.TimeToTrip(ratio)
		_, at := stepFor(b, units.Watts(1000*ratio), time.Minute, 10*time.Millisecond)
		diff := at - predicted
		if diff < 0 {
			diff = -diff
		}
		if diff > 50*time.Millisecond {
			t.Errorf("ratio %v: predicted %v, simulated %v", ratio, predicted, at)
		}
	}
}

func TestBreakerCooling(t *testing.T) {
	b := NewBreaker(1000)
	stepFor(b, 1500, 2*time.Second, 100*time.Millisecond) // build some heat
	h1 := b.Heat()
	if h1 <= 0 {
		t.Fatal("no heat accumulated")
	}
	stepFor(b, 500, 5*time.Minute, time.Second)
	h2 := b.Heat()
	if h2 >= h1*0.5 {
		t.Fatalf("heat did not decay: %v -> %v", h1, h2)
	}
}

// TestBreakerHeatPinned pins the thermal accumulator at full precision
// through heating, cooling, reheating and cooling again. Trips are
// decided by heat reaching the threshold, and no CSV reports heat, so a
// drift in the low bits of either the I²t gain or the cooling factor
// would otherwise move no tested output. The bits are amd64-exact like
// the experiment goldens: other architectures may fuse multiply-adds.
func TestBreakerHeatPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bits were pinned on amd64; GOARCH=%s may fuse FMAs", runtime.GOARCH)
	}
	phases := []struct {
		ticks int
		load  units.Watts
		want  uint64
	}{
		{20, 1500, 0x4004000000000000}, // heat 2.5
		{600, 500, 0x40005fe6c5cdfcf6}, // one minute of cooling
		{20, 1800, 0x401a1b78819f506b}, // reheated
		{50, 900, 0x4019ad00af32e6af},  // cooling below rating
	}
	b := NewBreaker(1000)
	for i, ph := range phases {
		for k := 0; k < ph.ticks; k++ {
			if b.Step(ph.load, 100*time.Millisecond) {
				t.Fatalf("phase %d: breaker tripped", i)
			}
		}
		if got := math.Float64bits(b.Heat()); got != ph.want {
			t.Errorf("phase %d (%d ticks at %v): heat %v (%#016x), want %v (%#016x)",
				i, ph.ticks, ph.load, b.Heat(), got, math.Float64frombits(ph.want), ph.want)
		}
	}
}
