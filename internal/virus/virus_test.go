package virus

import (
	"math"
	"testing"
	"time"
)

func TestCalibratedProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("IO")
	if err != nil || p.Name != "IO" {
		t.Fatalf("ProfileByName(IO) = %+v, %v", p, err)
	}
	if _, err := ProfileByName("GPU"); err == nil {
		t.Fatal("unknown profile should fail")
	}
}

func TestProfileValidation(t *testing.T) {
	bad := []Profile{
		{PeakFraction: 0, SustainFraction: 0.5},
		{PeakFraction: 1.5, SustainFraction: 0.5},
		{PeakFraction: 0.8, SustainFraction: 0.9}, // sustain above peak
		{PeakFraction: 0.8, SustainFraction: 0},
		{PeakFraction: 0.8, SustainFraction: 0.5, RampTime: -time.Second},
		{PeakFraction: 0.8, SustainFraction: 0.5, Jitter: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d should fail", i)
		}
	}
}

func TestProfileOrderingMatchesPaper(t *testing.T) {
	// CPU viruses form the tallest, sharpest spikes; IO the weakest.
	if !(CPUIntensive.PeakFraction > MemIntensive.PeakFraction &&
		MemIntensive.PeakFraction > IOIntensive.PeakFraction) {
		t.Error("peak fractions should order CPU > Mem > IO")
	}
	if !(CPUIntensive.RampTime < MemIntensive.RampTime &&
		MemIntensive.RampTime < IOIntensive.RampTime) {
		t.Error("ramp times should order CPU < Mem < IO")
	}
}

func TestAttackConfigValidation(t *testing.T) {
	bad := []Config{
		{Profile: Profile{}},
		{Profile: CPUIntensive, SpikesPerMinute: 120},
		{Profile: CPUIntensive, RestFraction: 2},
		{Profile: CPUIntensive, SpikeWidth: time.Minute, SpikesPerMinute: 2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	if _, err := New(Config{Profile: CPUIntensive}); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
}

func TestAttackPhaseProgression(t *testing.T) {
	a := MustNew(Config{
		Profile:      CPUIntensive,
		PrepDuration: 2 * time.Second,
		MaxPhaseI:    10 * time.Second,
	})
	const dt = 100 * time.Millisecond
	if a.Phase() != Preparation {
		t.Fatal("should start in Preparation")
	}
	for t := time.Duration(0); t < 3*time.Second; t += dt {
		a.Step(dt, Observation{})
	}
	if a.Phase() != PhaseI {
		t.Fatalf("after prep: %v, want Phase-I", a.Phase())
	}
	for t := time.Duration(0); t < 11*time.Second; t += dt {
		a.Step(dt, Observation{})
	}
	if a.Phase() != PhaseII {
		t.Fatalf("after MaxPhaseI: %v, want Phase-II", a.Phase())
	}
}

func TestAttackLearnsFromCapping(t *testing.T) {
	a := MustNew(Config{
		Profile:           CPUIntensive,
		PrepDuration:      time.Second,
		CapTicksToConfirm: 3,
		MaxPhaseI:         time.Hour,
	})
	const dt = 100 * time.Millisecond
	// Through prep into Phase I.
	for t := time.Duration(0); t < 2*time.Second; t += dt {
		a.Step(dt, Observation{})
	}
	if a.Phase() != PhaseI {
		t.Fatalf("phase = %v", a.Phase())
	}
	// 20 s of uncapped drain, then capping starts.
	for t := time.Duration(0); t < 20*time.Second; t += dt {
		a.Step(dt, Observation{})
	}
	// One isolated capped tick is not enough.
	a.Step(dt, Observation{Capped: true})
	a.Step(dt, Observation{Capped: false})
	if a.Phase() != PhaseI {
		t.Fatal("single capped tick should not trigger Phase II")
	}
	for i := 0; i < 3; i++ {
		a.Step(dt, Observation{Capped: true})
	}
	if a.Phase() != PhaseII {
		t.Fatal("sustained capping should trigger Phase II")
	}
	if a.LearnedDrainTime() < 19*time.Second {
		t.Fatalf("learned drain %v too short", a.LearnedDrainTime())
	}
}

func TestAttackPhaseIIUtilizationShape(t *testing.T) {
	a := MustNew(Config{
		Profile:         CPUIntensive,
		PrepDuration:    time.Second,
		MaxPhaseI:       time.Second,
		SpikeWidth:      time.Second,
		SpikesPerMinute: 6,
		RestFraction:    0.3,
	})
	const dt = 100 * time.Millisecond
	var maxU, minU = 0.0, 1.0
	var elapsed time.Duration
	for ; elapsed < 3*time.Second; elapsed += dt {
		a.Step(dt, Observation{})
	}
	if a.Phase() != PhaseII {
		t.Fatalf("phase = %v", a.Phase())
	}
	for t := time.Duration(0); t < 2*time.Minute; t += dt {
		u := a.Step(dt, Observation{})
		if u > maxU {
			maxU = u
		}
		if u < minU {
			minU = u
		}
	}
	if maxU < 0.9 {
		t.Errorf("spikes never reached high utilization: max %v", maxU)
	}
	if minU > 0.45 {
		t.Errorf("rest level too high: min %v", minU)
	}
	if got := a.SpikesLaunched(); got < 10 || got > 14 {
		t.Errorf("spikes launched in 2 min at 6/min = %d, want ~12", got)
	}
}

func TestAttackDeterminism(t *testing.T) {
	run := func() []float64 {
		a := MustNew(Config{Profile: MemIntensive, Seed: 5,
			PrepDuration: time.Second, MaxPhaseI: time.Second})
		var out []float64
		for i := 0; i < 600; i++ {
			out = append(out, a.Step(100*time.Millisecond, Observation{}))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at tick %d", i)
		}
	}
}

func TestAttackUtilizationBounds(t *testing.T) {
	a := MustNew(Config{Profile: CPUIntensive, Seed: 9,
		PrepDuration: time.Second, MaxPhaseI: time.Second})
	for i := 0; i < 10000; i++ {
		u := a.Step(100*time.Millisecond, Observation{})
		if u < 0 || u > 1 {
			t.Fatalf("utilization out of bounds at tick %d: %v", i, u)
		}
	}
}

func TestIORampBluntsNarrowSpikes(t *testing.T) {
	// Drive both viruses open-loop in Phase II with 1 s spikes; the IO
	// virus's achieved peak should sit well below the CPU virus's.
	peak := func(p Profile) float64 {
		a := MustNew(Config{Profile: p, Seed: 1,
			PrepDuration: time.Second, MaxPhaseI: time.Second,
			SpikeWidth: time.Second, SpikesPerMinute: 6})
		m := 0.0
		for i := 0; i < 3000; i++ {
			if u := a.Step(100*time.Millisecond, Observation{}); u > m {
				m = u
			}
		}
		return m
	}
	cpu, io := peak(CPUIntensive), peak(IOIntensive)
	if io >= cpu-0.2 {
		t.Fatalf("IO peak %v should trail CPU peak %v by >0.2", io, cpu)
	}
}

func TestScenarioTraces(t *testing.T) {
	for _, s := range Scenarios() {
		tr := s.UtilizationTrace(CPUIntensive, 2*time.Minute, 100*time.Millisecond, 3)
		if tr.Len() != 1200 {
			t.Fatalf("%s: trace length %d", s.Name, tr.Len())
		}
		if tr.Max() < 0.9 {
			t.Errorf("%s: no spikes visible (max %v)", s.Name, tr.Max())
		}
	}
	// Dense attacks put more energy into the window than sparse ones.
	dense := DenseAttack.UtilizationTrace(CPUIntensive, 5*time.Minute, 100*time.Millisecond, 3)
	sparse := SparseAttack.UtilizationTrace(CPUIntensive, 5*time.Minute, 100*time.Millisecond, 3)
	if dense.Mean() <= sparse.Mean() {
		t.Errorf("dense mean %v should exceed sparse mean %v", dense.Mean(), sparse.Mean())
	}
}

func TestPhaseString(t *testing.T) {
	if Preparation.String() != "Preparation" || PhaseI.String() != "Phase-I" ||
		PhaseII.String() != "Phase-II" {
		t.Error("phase names wrong")
	}
	if Phase(9).String() != "Phase(9)" {
		t.Error("unknown phase formatting wrong")
	}
}

func TestSpikeJitterVariesHeights(t *testing.T) {
	a := MustNew(Config{Profile: IOIntensive, Seed: 21,
		PrepDuration: time.Second, MaxPhaseI: time.Second,
		SpikeWidth: 4 * time.Second, SpikesPerMinute: 6})
	// Collect the peak of each spike over several spikes.
	const dt = 100 * time.Millisecond
	var peaks []float64
	cur := 0.0
	inSpike := false
	for i := 0; i < 6000; i++ {
		u := a.Step(dt, Observation{})
		if u > 0.5 {
			inSpike = true
			if u > cur {
				cur = u
			}
		} else if inSpike {
			peaks = append(peaks, cur)
			cur, inSpike = 0, false
		}
	}
	if len(peaks) < 3 {
		t.Fatalf("too few spikes observed: %d", len(peaks))
	}
	varies := false
	for i := 1; i < len(peaks); i++ {
		if math.Abs(peaks[i]-peaks[0]) > 1e-6 {
			varies = true
		}
	}
	if !varies {
		t.Error("jitter produced identical spike heights")
	}
}

func TestPhaseJitterValidation(t *testing.T) {
	if _, err := New(Config{Profile: CPUIntensive, PhaseJitter: 1.0}); err == nil {
		t.Fatal("jitter of 1.0 should fail")
	}
	if _, err := New(Config{Profile: CPUIntensive, PhaseJitter: -0.1}); err == nil {
		t.Fatal("negative jitter should fail")
	}
}

func TestPhaseJitterVariesIntervals(t *testing.T) {
	run := func(jitter float64) []time.Duration {
		a := MustNew(Config{
			Profile:         CPUIntensive,
			PrepDuration:    time.Second,
			MaxPhaseI:       time.Second,
			SpikeWidth:      time.Second,
			SpikesPerMinute: 6,
			PhaseJitter:     jitter,
			Seed:            11,
		})
		const dt = 100 * time.Millisecond
		for i := 0; i < 6000; i++ { // 10 minutes
			a.Step(dt, Observation{})
		}
		return a.SpikeTimes()
	}
	regular := run(0)
	jittered := run(0.5)

	gaps := func(ts []time.Duration) []float64 {
		var out []float64
		for i := 1; i < len(ts); i++ {
			out = append(out, (ts[i] - ts[i-1]).Seconds())
		}
		return out
	}
	rg, jg := gaps(regular), gaps(jittered)
	if len(rg) < 5 || len(jg) < 5 {
		t.Fatalf("too few spikes: %d regular, %d jittered", len(rg), len(jg))
	}
	// Regular schedule: all gaps equal the 10 s period.
	for _, g := range rg {
		if math.Abs(g-10) > 0.2 {
			t.Fatalf("regular gap %v, want 10 s", g)
		}
	}
	// Jittered schedule: gaps vary materially but the mean rate holds.
	varies := false
	sum := 0.0
	for _, g := range jg {
		sum += g
		if math.Abs(g-10) > 0.5 {
			varies = true
		}
	}
	if !varies {
		t.Fatal("jittered gaps look periodic")
	}
	mean := sum / float64(len(jg))
	if mean < 8 || mean > 12 {
		t.Fatalf("jittered mean gap %v, want ~10 s", mean)
	}
}

func TestPhaseJitterKeepsSpikeShape(t *testing.T) {
	a := MustNew(Config{
		Profile:         CPUIntensive,
		PrepDuration:    time.Second,
		MaxPhaseI:       time.Second,
		SpikeWidth:      2 * time.Second,
		SpikesPerMinute: 6,
		PhaseJitter:     0.3,
		Seed:            5,
	})
	const dt = 100 * time.Millisecond
	maxU, minU := 0.0, 1.0
	for i := 0; i < 3000; i++ {
		u := a.Step(dt, Observation{})
		if i > 100 {
			if u > maxU {
				maxU = u
			}
			if u < minU {
				minU = u
			}
		}
	}
	if maxU < 0.9 {
		t.Fatalf("jittered spikes never peak: max %v", maxU)
	}
	if minU > 0.45 {
		t.Fatalf("jittered schedule never rests: min %v", minU)
	}
}
