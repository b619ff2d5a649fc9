package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/attacksearch"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// stepDigest steps a fresh stepper over cfg until it is done and chains
// FNV-1a 64 over its state walk after every tick. Chaining every tick,
// rather than hashing the final state, keeps a difference that heat
// cooling or a full battery later erases: it still changed the walk of
// the tick where it happened.
func stepDigest(cfg sim.Config, scheme sim.Scheme) (digest uint64, ticks int, err error) {
	st, err := sim.NewStepper(cfg, scheme)
	if err != nil {
		return 0, 0, err
	}
	h := fnv.New64a()
	var walk []byte
	for {
		ok, err := st.Step()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			break
		}
		walk = st.AppendState(walk[:0])
		h.Write(walk)
	}
	return h.Sum64(), st.Ticks(), nil
}

// TestStepperDigests pins the chained per-tick digest of the engine's
// whole state for runs that between them reach every branch of the
// per-rack pass: DVFS-capped, shed, dark (tripped) and restored racks,
// μDEB shaving and granted charge. The runs are:
//   - the six corpus scenarios against all six schemes at their full
//     horizon, without stopping at the first trip, so tripped racks stay
//     dark;
//   - one of them again with every rack shed early on, so dark racks
//     carry shed marks from an earlier tick;
//   - the capping PSPC and PAD runs TestResultPinned pins, and the PAD
//     one again at its full horizon, where dark racks are capped or shed;
//   - Figure 16's Conv run at its highest attack rate, whose tripped
//     feeds are restored after two minutes;
//   - quick Figures 5 and 14, whose rack cabinets discharge to the
//     low-voltage disconnect's cutoff, charge while disconnected and
//     reconnect;
//   - a corpus run on cabinets built at 2% charge, which start
//     disconnected, are asked to discharge while disconnected and charge
//     from there.
//
// The rounded CSVs and the final Result miss a change that only moves
// breaker heat, or one that cancels before a run ends; a per-tick digest
// of the state walk does not. Regenerate with -update after an
// intentional engine change.
func TestStepperDigests(t *testing.T) {
	skipOffAMD64(t)
	var got bytes.Buffer
	add := func(name string, cfg sim.Config, scheme sim.Scheme) {
		t.Helper()
		d, ticks, err := stepDigest(cfg, scheme)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %d %#016x\n", name, ticks, d)
	}

	scens, err := attacksearch.LoadCorpus("../attacksearch/testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) == 0 {
		t.Fatal("empty corpus")
	}
	for _, scen := range scens {
		bg := scen.Background()
		for _, name := range schemes.SchemeNames {
			cfg, scheme, err := scen.SimConfig(name, bg)
			if err != nil {
				t.Fatal(err)
			}
			add(scen.Name+"/"+name, cfg, scheme)
		}
	}
	cfg, conv, err := scens[0].SimConfig("Conv", nil)
	if err != nil {
		t.Fatal(err)
	}
	add(scens[0].Name+"/Conv/shed-early", cfg, &shedEarly{Scheme: conv, ticks: 100})

	p := Params{Quick: true}
	for _, name := range []string{"PSPC", "PAD"} {
		cfg, scheme, err := fig15DenseCPU(p, name)
		if err != nil {
			t.Fatal(err)
		}
		add("fig15/"+name+"/Dense/CPU", cfg, scheme)
	}
	cfg, pad, err := fig15DenseCPU(p, "PAD")
	if err != nil {
		t.Fatal(err)
	}
	cfg.StopOnTrip = false
	add("fig15/PAD/Dense/CPU/full", cfg, pad)
	const key = "fig16a/Conv/rate=0.50"
	add(key, fig16AttackedConfig(p, fig16Background(p), key, 2*time.Second, 15), schemes.NewConv(schemes.Options{}))

	fig5bg, err := fig5Background(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, offline := range []bool{false, true} {
		cfg, scheme := fig5Run(p, fig5bg, offline)
		add(cfg.Key, cfg, scheme)
	}
	fig14bg, err := fig14Background(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		key    string
		scheme sim.Scheme
	}{
		{"fig14/before", schemes.NewPS(schemes.Options{Offline: true})},
		{"fig14/after", schemes.NewPAD(schemes.Options{})},
	} {
		add(run.key, fig14Config(p, fig14bg, run.key), run.scheme)
	}
	cfg, ps, err := scens[0].SimConfig("PS", nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BatteryFactory = emptyBatteryFactory
	add(scens[0].Name+"/PS/empty/discharge-early", cfg, &dischargeEarly{Scheme: ps, ticks: 100})

	// Racks of other sizes than ten. PAD's Level-3 shed budget and the
	// PIdeal default of PAD and vDEB both follow the rack size.
	quick := quickSearchScenario()
	qbg := quick.Background()
	for _, name := range schemes.SchemeNames {
		cfg, scheme, err := quick.SimConfig(name, qbg)
		if err != nil {
			t.Fatal(err)
		}
		add(quick.Name+"/"+name, cfg, scheme)
	}
	for _, name := range []string{"PAD", "vDEB"} {
		scheme, err := schemes.ByName(name, schemes.Options{})
		if err != nil {
			t.Fatal(err)
		}
		add("shape-4x5/"+name, shape4x5Config(), scheme)
	}

	checkPinned(t, "stepper_digests.txt", got.Bytes())
}

// quickSearchScenario is a three-group attack in the environment of
// `padsearch -quick`: 3 racks of 4 servers, a 30 s horizon, 3 nodes per
// group, 1 s of preparation and 12 s of patience.
func quickSearchScenario() attacksearch.Scenario {
	return attacksearch.Scenario{
		Version:        attacksearch.ScenarioVersion,
		Name:           "quick-3x4",
		Scheme:         "PAD",
		Seed:           7,
		Racks:          3,
		ServersPerRack: 4,
		TickMS:         100,
		DurationS:      30,
		BGMean:         0.30,

		PeakFraction:    1,
		SustainFraction: 0.95,
		RampMS:          100,
		Jitter:          0.02,

		SpikeWidthMS:    2000,
		SpikesPerMinute: 6,
		RestFraction:    0.30,
		PhaseJitter:     0.1,
		AmplitudeScale:  1,
		PrepS:           1,
		PatienceS:       12,

		Groups:        3,
		NodesPerGroup: 3,
		PhaseOffsetMS: 500,
	}
}

// shape4x5Config is a 4×5 cluster at a flat 0.62 background for 20
// minutes, with 1% μDEB banks and a three-node CPU attack on rack 0.
// Planned for 10-server racks, PAD sheds about 2.7% of its servers here.
func shape4x5Config() sim.Config {
	const racks, spr = 4, 5
	bg := make([]*stats.Series, racks*spr)
	for i := range bg {
		s := stats.NewSeries(time.Hour)
		s.Append(0.62)
		s.Append(0.62)
		bg[i] = s
	}
	return sim.Config{
		Key:             "shape-4x5",
		Racks:           racks,
		ServersPerRack:  spr,
		Duration:        20 * time.Minute,
		Background:      bg,
		MicroDEBFactory: schemes.MicroDEBFactory(0.01),
		Attacks: []sim.AttackSpec{attackSpec(3, virus.Config{
			Profile:      virus.CPUIntensive,
			PrepDuration: time.Second,
			MaxPhaseI:    2 * time.Minute,
		})},
	}
}

// shedEarly sheds two servers of every rack for the run's first ticks
// on top of its scheme's plan. Under Conv, racks the attack trips later
// go dark unshed while holding shed marks from those early ticks, which
// the dark-rack accounting must not read.
type shedEarly struct {
	sim.Scheme
	ticks int
}

func (s *shedEarly) PlanInto(v sim.ClusterView, scratch []sim.Action) []sim.Action {
	acts := s.Scheme.PlanInto(v, scratch)
	if s.ticks > 0 {
		s.ticks--
		for i := range acts {
			acts[i].ShedServers = 2
		}
	}
	return acts
}

// dischargeEarly asks every rack's battery for the rack's whole demand
// for the run's first ticks on top of its scheme's plan. On cabinets
// built below the low-voltage cutoff, every one of those requests
// reaches a disconnected battery.
type dischargeEarly struct {
	sim.Scheme
	ticks int
}

func (s *dischargeEarly) PlanInto(v sim.ClusterView, scratch []sim.Action) []sim.Action {
	acts := s.Scheme.PlanInto(v, scratch)
	if s.ticks > 0 {
		s.ticks--
		for i := range acts {
			acts[i].Discharge = v.Racks[i].Demand
		}
	}
	return acts
}
