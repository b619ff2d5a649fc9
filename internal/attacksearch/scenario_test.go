package attacksearch

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// validScenario is a small, fully specified scenario used across the
// package tests.
func validScenario() Scenario {
	return Scenario{
		Version:        ScenarioVersion,
		Name:           "test/handmade",
		Scheme:         "PAD",
		Seed:           7,
		Racks:          4,
		ServersPerRack: 6,
		TickMS:         100,
		DurationS:      45,
		BGMean:         0.3,

		PeakFraction:    0.95,
		SustainFraction: 0.9,
		RampMS:          120,
		Jitter:          0.02,

		SpikeWidthMS:    1500,
		SpikesPerMinute: 6,
		RestFraction:    0.3,
		PhaseJitter:     0.1,
		AmplitudeScale:  1,
		PrepS:           1,
		PatienceS:       20,

		Groups:        2,
		NodesPerGroup: 4,
		PhaseOffsetMS: 2500,
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	s := validScenario()
	s.Expect = map[string]Expectation{
		"PAD": {Tripped: true, TimeToTripS: 12.5, EffectiveAttacks: 3},
		"PS":  {Tripped: false, TimeToTripS: 45},
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Error("encoded scenario missing trailing newline")
	}
	got, err := DecodeScenario(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip changed the scenario:\nin  %+v\nout %+v", s, got)
	}
}

func TestScenarioValidate(t *testing.T) {
	mut := func(f func(*Scenario)) Scenario {
		s := validScenario()
		f(&s)
		return s
	}
	cases := []struct {
		name string
		s    Scenario
	}{
		{"future version", mut(func(s *Scenario) { s.Version = ScenarioVersion + 1 })},
		{"zero version", mut(func(s *Scenario) { s.Version = 0 })},
		{"unknown scheme", mut(func(s *Scenario) { s.Scheme = "magic" })},
		{"zero racks", mut(func(s *Scenario) { s.Racks = 0 })},
		{"huge racks", mut(func(s *Scenario) { s.Racks = 65 })},
		{"tiny tick", mut(func(s *Scenario) { s.TickMS = 5 })},
		{"zero duration", mut(func(s *Scenario) { s.DurationS = 0 })},
		{"nan duration", mut(func(s *Scenario) { s.DurationS = math.NaN() })},
		{"tick budget", mut(func(s *Scenario) { s.DurationS = 3600; s.TickMS = 10 })},
		{"nan bg", mut(func(s *Scenario) { s.BGMean = math.NaN() })},
		{"inf ramp", mut(func(s *Scenario) { s.RampMS = math.Inf(1) })},
		{"nan peak", mut(func(s *Scenario) { s.PeakFraction = math.NaN() })},
		{"sustain above peak", mut(func(s *Scenario) { s.SustainFraction = s.PeakFraction + 0.1 })},
		{"width eats period", mut(func(s *Scenario) { s.SpikeWidthMS = 11_000; s.SpikesPerMinute = 6 })},
		{"negative offset", mut(func(s *Scenario) { s.PhaseOffsetMS = -1 })},
		{"groups beyond racks", mut(func(s *Scenario) { s.Groups = s.Racks + 1 })},
		{"nodes beyond rack", mut(func(s *Scenario) { s.NodesPerGroup = s.ServersPerRack + 1 })},
		{"expect unknown scheme", mut(func(s *Scenario) {
			s.Expect = map[string]Expectation{"magic": {}}
		})},
		{"expect beyond horizon", mut(func(s *Scenario) {
			s.Expect = map[string]Expectation{"PS": {TimeToTripS: s.DurationS + 1}}
		})},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); err == nil {
			t.Errorf("%s: not rejected", tc.name)
		}
	}
	if err := validScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

// TestWriteScenarioValidates: a scenario LoadCorpus would reject, here
// a 2 h horizon, is refused with Validate's reason and leaves no file.
func TestWriteScenarioValidates(t *testing.T) {
	s := validScenario()
	s.DurationS = 7200
	path := filepath.Join(t.TempDir(), "long.json")
	err := WriteScenario(path, s)
	if err == nil || !strings.Contains(err.Error(), "duration 7200 s out of (0,3600]") {
		t.Fatalf("WriteScenario(7200 s) error = %v, want the duration bound", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("rejected scenario left a file: stat error %v", err)
	}
}

func TestDecodeRejects(t *testing.T) {
	s := validScenario()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	unknown := strings.Replace(buf.String(), `"version"`, `"verzion"`, 1)
	if _, err := DecodeScenario(strings.NewReader(unknown)); err == nil {
		t.Error("unknown field not rejected")
	}
	if _, err := DecodeScenario(strings.NewReader(buf.String() + "{}\n")); err == nil {
		t.Error("trailing document not rejected")
	}
	if _, err := DecodeScenario(strings.NewReader("{")); err == nil {
		t.Error("truncated document not rejected")
	}
}

// TestAttackSpecsPlacement pins the corpus placement convention: group g
// compromises the first NodesPerGroup slots of rack g, and controllers
// are fresh per call.
func TestAttackSpecsPlacement(t *testing.T) {
	s := validScenario()
	specs, err := s.AttackSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != s.Groups {
		t.Fatalf("%d specs for %d groups", len(specs), s.Groups)
	}
	for g, spec := range specs {
		if spec.Attack == nil {
			t.Fatalf("group %d has no controller", g)
		}
		if len(spec.Servers) != s.NodesPerGroup {
			t.Fatalf("group %d has %d servers, want %d", g, len(spec.Servers), s.NodesPerGroup)
		}
		for i, srv := range spec.Servers {
			if want := g*s.ServersPerRack + i; srv != want {
				t.Fatalf("group %d server %d is %d, want %d", g, i, srv, want)
			}
		}
	}
	again, err := s.AttackSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Attack == again[0].Attack {
		t.Error("AttackSpecs returned a shared controller; must be fresh per call")
	}
}

// TestBackgroundShared pins that the background build is a pure function
// of the scenario seed — the property that lets Search share one trace
// across every candidate.
func TestBackgroundShared(t *testing.T) {
	s := validScenario()
	a, b := s.Background(), s.Background()
	if len(a) != s.Racks*s.ServersPerRack {
		t.Fatalf("%d series for %d servers", len(a), s.Racks*s.ServersPerRack)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("background trace not reproducible from the seed")
	}
}
