package padsec

// The benchmark harness: one Benchmark per reproduced table/figure (each
// regenerates the experiment at Quick scale; run cmd/experiments for the
// full-scale numbers), plus micro-benchmarks on the hot substrates.
//
//	go test -bench=. -benchmem

import (
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/powersim"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/virus"
)

var benchParams = experiments.Params{Quick: true, Seed: 1}

// benchSink defeats dead-code elimination across benchmarks.
var benchSink interface{}

func BenchmarkFig1OutageCostCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig5SOCVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig6TwoPhaseDemo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig7EffectiveAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig8ANodeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8A(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig8BWidthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8B(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig8CFrequencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8C(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkTable1Detection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig12AttackTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig13DEBMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig14LoadShedding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig15SurvivalTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig16AThroughputVsRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16A(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig16BThroughputVsWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16B(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkFig17CostEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkKiBaMDischargeStep(b *testing.B) {
	bat := battery.MustKiBaM(battery.KiBaMConfig{
		Capacity:     400_000,
		MaxDischarge: 10_000,
		MaxCharge:    1_000,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.Discharge(500, 100*time.Millisecond)
		if bat.SOC() < 0.5 {
			bat.Charge(1000, time.Second)
		}
	}
}

func BenchmarkBreakerStep(b *testing.B) {
	br := powersim.NewBreaker(4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Step(units.Watts(3500+i%1000), 100*time.Millisecond)
		if br.Tripped() {
			br.Reset()
		}
	}
}

func BenchmarkVDEBAllocate(b *testing.B) {
	ctrl, err := core.NewVDEBController(2600)
	if err != nil {
		b.Fatal(err)
	}
	socs := make([]float64, 22)
	for i := range socs {
		socs[i] = float64(i%10)/10 + 0.05
	}
	out := make([]units.Watts, len(socs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.AllocateInto(out, socs, 12_000)
	}
	benchSink = out
}

func BenchmarkAttackStep(b *testing.B) {
	atk := virus.MustNew(virus.Config{
		Profile:      virus.CPUIntensive,
		PrepDuration: time.Second,
		MaxPhaseI:    time.Second,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atk.Step(100*time.Millisecond, virus.Observation{})
	}
}

func BenchmarkServerPowerModel(b *testing.B) {
	m := powersim.DL585G5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = m.Power(float64(i%100)/100, 0.9)
	}
}

// BenchmarkSimTick measures the full engine at the paper's cluster scale:
// one reported iteration is one simulated 22-rack tick under PAD.
func BenchmarkSimTick(b *testing.B) {
	cfg := sim.Config{
		Racks:          22,
		ServersPerRack: 10,
		Tick:           100 * time.Millisecond,
		Duration:       time.Duration(b.N) * 100 * time.Millisecond,
		Background:     FlatBackground(220, 0.55),
		Attacks: []AttackSpec{NewAttack(4, virus.Config{
			Profile: virus.CPUIntensive,
		})},
		MicroDEBFactory: NewMicroDEBFactory(0.01),
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := sim.Run(cfg, schemes.NewPAD(schemes.Options{}))
	if err != nil {
		b.Fatal(err)
	}
	benchSink = res
}

// --- Ablation benchmarks ---

func BenchmarkAblationPIdeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPIdeal(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkAblationDetectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationDetectors(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPlacement(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}
