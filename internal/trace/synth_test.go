package trace

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// shortCfg is a small config that keeps generation fast in tests.
func shortCfg(seed uint64) SynthConfig {
	return SynthConfig{
		Machines: 40,
		Horizon:  12 * time.Hour,
		Seed:     seed,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(shortCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(shortCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("task %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(shortCfg(1))
	b, _ := Generate(shortCfg(2))
	if len(a.Tasks) == len(b.Tasks) {
		same := true
		for i := range a.Tasks {
			if a.Tasks[i] != b.Tasks[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGenerateValidTrace(t *testing.T) {
	tr, err := Generate(shortCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if len(tr.Tasks) == 0 {
		t.Fatal("generated trace is empty")
	}
	if tr.Horizon() > 12*time.Hour {
		t.Fatalf("tasks exceed horizon: %v", tr.Horizon())
	}
}

func TestGenerateTaskDurations(t *testing.T) {
	tr, err := Generate(SynthConfig{Machines: 50, Horizon: 24 * time.Hour, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	durs := make([]float64, len(tr.Tasks))
	for i, task := range tr.Tasks {
		durs[i] = (task.End - task.Start).Seconds()
	}
	// The generator targets 20-minute tasks with a heavy tail.
	mean := stats.Mean(durs)
	if mean < (5*time.Minute).Seconds() || mean > time.Hour.Seconds() {
		t.Fatalf("mean task duration = %vs, want in [5 min, 1 h]", mean)
	}
	if p95 := stats.Percentile(durs, 95); p95 <= mean {
		t.Fatalf("heavy-tailed durations: p95 %vs should exceed the mean %vs", p95, mean)
	}
}

func TestGenerateHitsMeanUtilization(t *testing.T) {
	cfg := SynthConfig{Machines: 60, Horizon: 48 * time.Hour, Seed: 11, MeanUtilization: 0.45}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := ClusterSeries(tr, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	mean := cluster.Mean()
	// The clamp at 1.0 and warm-up bias the mean down a bit; accept ±35%.
	if mean < 0.45*0.65 || mean > 0.45*1.35 {
		t.Fatalf("cluster mean utilization = %v, want near 0.45", mean)
	}
}

func TestGenerateDiurnalPattern(t *testing.T) {
	cfg := SynthConfig{Machines: 60, Horizon: 72 * time.Hour, Seed: 13}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := ClusterSeries(tr, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Compare midday vs midnight windows (skip day 0 for warm-up).
	var day, night []float64
	for i, v := range cluster.Values {
		hour := float64(i) * 0.5
		if hour < 24 {
			continue
		}
		hod := math.Mod(hour, 24)
		switch {
		case hod >= 11 && hod < 13:
			day = append(day, v)
		case hod >= 23 || hod < 1:
			night = append(night, v)
		}
	}
	if stats.Mean(day) <= stats.Mean(night) {
		t.Fatalf("no diurnal pattern: midday %v vs midnight %v",
			stats.Mean(day), stats.Mean(night))
	}
}

func TestGenerateSurges(t *testing.T) {
	cfg := SynthConfig{
		Machines: 40, Horizon: 8 * time.Hour, Seed: 17,
		SurgePeriod: 2 * time.Hour, SurgeWidth: 30 * time.Minute, SurgeBoost: 0.4,
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := ClusterSeries(tr, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var inSurge, outSurge []float64
	for i, v := range cluster.Values {
		at := time.Duration(i) * 10 * time.Minute
		into := at % (2 * time.Hour)
		// Allow half the mean task duration of spill-over after the window.
		if into < 30*time.Minute {
			inSurge = append(inSurge, v)
		} else if into > time.Hour {
			outSurge = append(outSurge, v)
		}
	}
	if stats.Mean(inSurge) <= stats.Mean(outSurge)+0.05 {
		t.Fatalf("surge not visible: %v in vs %v out",
			stats.Mean(inSurge), stats.Mean(outSurge))
	}
}

// TestGenerateConfigValidation: every bad value of a field, NaN and the
// infinities included, is refused with an error naming that field, by
// both generators and before either draws a task. A NaN mean utilization
// used to pass, and then panicked sizing the task slice.
func TestGenerateConfigValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		field     string
		bad, good []SynthConfig
	}{
		{"Machines", []SynthConfig{{Machines: -1}}, []SynthConfig{{Machines: 1}}},
		{"Horizon", []SynthConfig{{Horizon: -time.Hour}, {Horizon: -1}}, []SynthConfig{{Horizon: time.Second}}},
		{"MeanUtilization",
			[]SynthConfig{{MeanUtilization: nan}, {MeanUtilization: -0.1}, {MeanUtilization: 1}, {MeanUtilization: 1.2}, {MeanUtilization: inf}},
			[]SynthConfig{{MeanUtilization: 0.01}, {MeanUtilization: 0.99}}},
		{"DiurnalSwing",
			[]SynthConfig{{DiurnalSwing: nan}, {DiurnalSwing: -0.1}, {DiurnalSwing: 1}, {DiurnalSwing: inf}},
			[]SynthConfig{{DiurnalSwing: 0.99}}},
		{"WeekendDip",
			[]SynthConfig{{WeekendDip: nan}, {WeekendDip: -0.1}, {WeekendDip: 1}, {WeekendDip: inf}},
			[]SynthConfig{{WeekendDip: 0.99}}},
		{"MeanTaskDuration",
			[]SynthConfig{{MeanTaskDuration: -time.Minute}, {MeanTaskDuration: -1}},
			[]SynthConfig{{MeanTaskDuration: time.Second}}},
		{"TasksPerJob",
			[]SynthConfig{{TasksPerJob: nan}, {TasksPerJob: -1}, {TasksPerJob: inf}, {TasksPerJob: -inf}},
			[]SynthConfig{{TasksPerJob: 0.5}, {TasksPerJob: 40}}},
		{"SurgePeriod", []SynthConfig{{SurgePeriod: -time.Hour}}, []SynthConfig{{SurgePeriod: time.Minute}}},
		{"SurgeWidth", []SynthConfig{{SurgePeriod: time.Hour, SurgeWidth: -time.Minute}}, []SynthConfig{{SurgePeriod: time.Hour, SurgeWidth: time.Hour}}},
		{"SurgeBoost",
			[]SynthConfig{{SurgePeriod: time.Hour, SurgeBoost: nan}, {SurgeBoost: -0.1}, {SurgePeriod: time.Hour, SurgeBoost: 2}},
			[]SynthConfig{{SurgePeriod: time.Hour, SurgeBoost: 1}}},
	} {
		for _, cfg := range c.bad {
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%+v: Validate() = %v, want an error naming %s", cfg, err, c.field)
			}
			if _, err := Generate(cfg); err == nil {
				t.Errorf("%+v: Generate succeeded", cfg)
			}
			if _, err := GenerateMachineSeries(cfg, time.Minute); err == nil {
				t.Errorf("%+v: GenerateMachineSeries succeeded", cfg)
			}
		}
		for _, cfg := range c.good {
			if err := cfg.Validate(); err != nil {
				t.Errorf("%+v: Validate() = %v, want nil", cfg, err)
			}
		}
	}
}

func TestEnvelopeBounds(t *testing.T) {
	cfg := SynthConfig{}.withDefaults()
	for h := 0; h < 24*14; h++ {
		u := cfg.utilizationEnvelope(time.Duration(h) * time.Hour)
		if u < 0.02 || u > 0.98 {
			t.Fatalf("envelope out of bounds at hour %d: %v", h, u)
		}
	}
}

func TestEnvelopeWeekendDip(t *testing.T) {
	cfg := SynthConfig{}.withDefaults()
	// Same hour of day, weekday (day 2) vs weekend (day 6).
	wk := cfg.utilizationEnvelope(2*24*time.Hour + 12*time.Hour)
	we := cfg.utilizationEnvelope(6*24*time.Hour + 12*time.Hour)
	if we >= wk {
		t.Fatalf("weekend (%v) should dip below weekday (%v)", we, wk)
	}
}
