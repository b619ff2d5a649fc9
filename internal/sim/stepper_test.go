package sim_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

func stepperConfig() sim.Config {
	const racks, spr = 3, 5
	horizon := 12 * time.Second
	bg := make([]*stats.Series, racks*spr)
	rng := stats.NewRNG(41)
	for i := range bg {
		r := rng.Split(uint64(i))
		s := stats.NewSeries(time.Second)
		for k := 0; k <= int(horizon/time.Second)+1; k++ {
			s.Append(0.35 + 0.4*r.Float64())
		}
		bg[i] = s
	}
	return sim.Config{
		Key:             "stepper/equivalence",
		Racks:           racks,
		ServersPerRack:  spr,
		Tick:            100 * time.Millisecond,
		Duration:        horizon,
		Background:      bg,
		Record:          true,
		MicroDEBFactory: schemes.MicroDEBFactory(0.01),
		Attacks: []sim.AttackSpec{{
			Servers: []int{0, 1, 5},
			Attack: virus.MustNew(virus.Config{
				Profile:         virus.CPUIntensive,
				PrepDuration:    time.Second,
				MaxPhaseI:       3 * time.Second,
				SpikeWidth:      time.Second,
				SpikesPerMinute: 15,
				Seed:            9,
			}),
		}},
	}
}

func stepperMakers() map[string]func() sim.Scheme {
	makers := map[string]func() sim.Scheme{}
	for _, name := range schemes.SchemeNames {
		name := name
		makers[name] = func() sim.Scheme {
			s, err := schemes.ByName(name, schemes.Options{})
			if err != nil {
				panic(err)
			}
			return s
		}
	}
	return makers
}

// TestRunEqualsManualStepping pins the Stepper extraction: for every
// scheme, Run and a manual loop over the single-tick API — both the
// packaged Step and the split ComputeDemand/Advance pair the online
// daemon uses — must produce deeply equal Results, recordings included.
// Any divergence means Run grew behaviour the stepping API does not
// share, which would silently break the online/offline equivalence padd
// relies on.
func TestRunEqualsManualStepping(t *testing.T) {
	for name, mk := range stepperMakers() {
		t.Run(name, func(t *testing.T) {
			viaRun, err := sim.Run(stepperConfig(), mk())
			if err != nil {
				t.Fatal(err)
			}

			st, err := sim.NewStepper(stepperConfig(), mk())
			if err != nil {
				t.Fatal(err)
			}
			steps := 0
			for {
				ok, err := st.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				steps++
			}
			if !st.Done() {
				t.Fatalf("stepper not done after Step returned false")
			}
			if steps != st.Ticks() {
				t.Fatalf("stepped %d times but Ticks() = %d", steps, st.Ticks())
			}
			if !reflect.DeepEqual(viaRun, st.Result()) {
				t.Fatalf("%s: Run and manual Step loop produced different Results", name)
			}

			// The split path: demand computed explicitly, then fed back in
			// — exactly how the replay bridge drives the offline side.
			split, err := sim.NewStepper(stepperConfig(), mk())
			if err != nil {
				t.Fatal(err)
			}
			for !split.Done() {
				if err := split.Advance(split.ComputeDemand()); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(viaRun, split.Result()) {
				t.Fatalf("%s: Run and ComputeDemand/Advance loop produced different Results", name)
			}
		})
	}
}

// TestStepperGuards covers the stepping API's error paths: a finished
// stepper refuses to advance, and a demand slice of the wrong length is
// rejected before it can corrupt the run.
func TestStepperGuards(t *testing.T) {
	cfg := stepperConfig()
	cfg.Duration = 300 * time.Millisecond
	mk := stepperMakers()["PAD"]
	st, err := sim.NewStepper(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.TotalServers(), cfg.Racks*cfg.ServersPerRack; got != want {
		t.Fatalf("TotalServers = %d, want %d", got, want)
	}
	if err := st.Advance(make([]float64, 3)); err == nil {
		t.Fatal("Advance accepted a mis-sized demand slice")
	}
	for {
		ok, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := st.Advance(make([]float64, st.TotalServers())); err == nil {
		t.Fatal("Advance accepted a tick past the horizon")
	}
	if st.Now() != cfg.Duration {
		t.Fatalf("Now() = %v after the full horizon, want %v", st.Now(), cfg.Duration)
	}
}

// TestStepperStats sanity-checks the observability snapshot the online
// daemon exports.
func TestStepperStats(t *testing.T) {
	cfg := stepperConfig()
	cfg.Duration = 2 * time.Second
	st, err := sim.NewStepper(cfg, stepperMakers()["PAD"]())
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ts := st.Stats()
	if ts.Ticks != st.Ticks() || ts.Now != st.Now() {
		t.Fatalf("Stats ticks/now = %d/%v, want %d/%v", ts.Ticks, ts.Now, st.Ticks(), st.Now())
	}
	if ts.TotalGrid <= 0 {
		t.Fatalf("TotalGrid = %v, want positive draw under load", ts.TotalGrid)
	}
	if ts.MeanSOC <= 0 || ts.MeanSOC > 1 || ts.MinSOC > ts.MeanSOC {
		t.Fatalf("SOC stats out of range: mean %v min %v", ts.MeanSOC, ts.MinSOC)
	}
	if ts.MeanMicroSOC < 0 || ts.MeanMicroSOC > 1 {
		t.Fatalf("MeanMicroSOC = %v with μDEB deployed, want [0,1]", ts.MeanMicroSOC)
	}
	if ts.Level == 0 {
		t.Fatalf("Level = 0 for PAD, want a reported security level")
	}
}
