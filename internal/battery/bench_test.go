package battery

import (
	"testing"
	"time"

	"repro/internal/units"
)

// Battery microbenchmarks for the fixed-timestep kernel layer. The
// constant-dt cases are the engine's steady state — the per-dt
// coefficient cache hits every op and the closed form runs without a
// single math.Exp — while the alternating-dt case prices a cache miss
// (two exponentials recomputed per step).

func benchKiBaM() *KiBaM {
	return MustKiBaM(KiBaMConfig{
		Capacity:              260640,
		SelfDischargePerMonth: 0.03,
	})
}

func BenchmarkKiBaMStep(b *testing.B) {
	bat := benchKiBaM()
	const dt = 100 * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate discharge and charge so the wells never pin at a rail.
		if i%2 == 0 {
			bat.Discharge(500, dt)
		} else {
			bat.Charge(500, dt)
		}
	}
}

func BenchmarkKiBaMStepVaryDT(b *testing.B) {
	bat := benchKiBaM()
	dts := []time.Duration{100 * time.Millisecond, time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			bat.Discharge(500, dts[i%2])
		} else {
			bat.Charge(500, dts[i%2])
		}
	}
}

// BenchmarkKiBaMDeliverable reads Deliverable at a fixed dt with the
// wells unchanged, so after the first op every call is a maxSustainable
// memo hit — the cost of each read after the first within a tick.
func BenchmarkKiBaMDeliverable(b *testing.B) {
	bat := benchKiBaM()
	const dt = 100 * time.Millisecond
	var sink units.Watts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = bat.Deliverable(dt)
	}
	_ = sink
}

func BenchmarkSizeForAutonomyCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ResetSizeCache()
		SizeForAutonomy(2600, 50*time.Second, 0, 0)
	}
	ResetSizeCache()
}

func BenchmarkSizeForAutonomyWarm(b *testing.B) {
	ResetSizeCache()
	SizeForAutonomy(2600, 50*time.Second, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SizeForAutonomy(2600, 50*time.Second, 0, 0)
	}
	ResetSizeCache()
}
