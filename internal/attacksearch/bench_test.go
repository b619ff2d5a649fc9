package attacksearch

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkEvalTick measures the per-tick cost of Evaluate's loop —
// stepper advance plus the Tripped/BreakerMargin probe — and pins it
// allocation-free, the same contract BenchmarkStepperTick holds for the
// bare engine. Per-candidate search cost is this number times the
// horizon's tick count.
func BenchmarkEvalTick(b *testing.B) {
	s := validScenario()
	// Horizon sized to the benchmark so the stepper never finishes early;
	// this bypasses the corpus-format tick budget on purpose.
	s.DurationS = (float64(b.N) + 1) * float64(s.TickMS) / 1000
	cfg, scheme, err := s.SimConfig("PAD", nil)
	if err != nil {
		b.Fatal(err)
	}
	// Evaluate sets StopOnTrip; the bench leaves it off so a trip latches
	// instead of ending the run short of b.N ticks. The per-tick cost is
	// the same either way.
	st, err := sim.NewStepper(cfg, scheme)
	if err != nil {
		b.Fatal(err)
	}

	minMargin := rackNameplate(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := st.Step()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatalf("stepper finished early at tick %d", i)
		}
		if !st.Tripped() {
			if m := st.BreakerMargin(); m < minMargin {
				minMargin = m
			}
		}
	}
	b.StopTimer()
	if minMargin <= 0 {
		b.Logf("min margin %.1f W over %s", float64(minMargin), time.Duration(b.N)*s.Tick())
	}
}
