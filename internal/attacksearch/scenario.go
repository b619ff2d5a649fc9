// Package attacksearch characterizes each defense scheme's actual
// robustness boundary instead of its behaviour on six canned virus
// profiles: it searches the virus parameter space — spike height, width,
// frequency, phase jitter, ramp time, multi-rack coordination count and
// phase offsets — for the attacks a scheme handles worst, scores every
// candidate on time-to-trip, battery drain and stealth margin, and emits
// a per-scheme robustness frontier. The worst cases found are serialized
// as versioned Scenario documents and checked in under testdata/corpus/,
// where a regression test tier replays them through sim.Run and
// padd.Replay so later engine or scheme changes cannot silently weaken
// the defense against known-worst inputs.
//
// Determinism contract: a search is a pure function of (Config.Seed,
// Config.Budget, Config.Env, scheme list). Candidate generation is
// serial, evaluations fan out through internal/runner with results
// consumed in job order, and every random stream is derived with
// runner.DeriveSeed — so frontier CSV and evaluation JSONL bytes are
// identical at any worker count, exactly like the figure sweeps.
package attacksearch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/runner"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// ScenarioVersion is the current serialized scenario format version.
// Bump it when a field changes meaning; Decode rejects versions it does
// not know, so a stale binary fails loudly instead of misreading a
// corpus file.
const ScenarioVersion = 1

// Scenario is one fully specified attack experiment: the cluster
// environment, the parameterized virus, and the coordinated campaign
// layout. It is the search space's candidate representation, the corpus
// serialization format, and the replay input — one document, three uses.
//
// All randomness inside an evaluation derives from Seed: the background
// trace uses DeriveSeed(Seed, "bg") and attack group g uses the campaign
// derivation from Seed, so a scenario file alone reproduces its run.
type Scenario struct {
	// Version is the format version (ScenarioVersion).
	Version int `json:"version"`
	// Name labels the scenario in reports and corpus files.
	Name string `json:"name"`
	// Scheme is the defense the scenario was discovered against.
	Scheme string `json:"scheme"`
	// Seed drives the background trace and the per-group jitter streams.
	Seed uint64 `json:"seed"`

	// Cluster environment.
	Racks          int     `json:"racks"`
	ServersPerRack int     `json:"servers_per_rack"`
	TickMS         int     `json:"tick_ms"`
	DurationS      float64 `json:"duration_s"`
	BGMean         float64 `json:"bg_mean"`

	// Virus profile (parameterized, not one of the canned three).
	PeakFraction    float64 `json:"peak_fraction"`
	SustainFraction float64 `json:"sustain_fraction"`
	RampMS          float64 `json:"ramp_ms"`
	Jitter          float64 `json:"jitter"`

	// Two-phase schedule.
	SpikeWidthMS    float64 `json:"spike_width_ms"`
	SpikesPerMinute float64 `json:"spikes_per_minute"`
	RestFraction    float64 `json:"rest_fraction"`
	PhaseJitter     float64 `json:"phase_jitter"`
	AmplitudeScale  float64 `json:"amplitude_scale"`
	PrepS           float64 `json:"prep_s"`
	PatienceS       float64 `json:"patience_s"`

	// Coordination: Groups phase-locked actor groups, group g occupying
	// the first NodesPerGroup servers of rack g, starting g×PhaseOffsetMS
	// after group 0.
	Groups        int     `json:"groups"`
	NodesPerGroup int     `json:"nodes_per_group"`
	PhaseOffsetMS float64 `json:"phase_offset_ms"`

	// Expect pins the regression outcomes per scheme name. Filled by
	// FillExpectations when a scenario is promoted into the corpus;
	// empty on freshly searched candidates.
	Expect map[string]Expectation `json:"expect,omitempty"`
}

// Expectation is the pinned outcome of replaying a scenario against one
// scheme: the regression contract the corpus tier enforces.
type Expectation struct {
	Tripped          bool    `json:"tripped"`
	TimeToTripS      float64 `json:"time_to_trip_s"`
	EffectiveAttacks int     `json:"effective_attacks"`
}

// Validate reports a malformed scenario. Range checks are written in
// accept-range form so NaN fields are rejected rather than slipping past
// both sides of a reject-range comparison; the virus-level checks are
// delegated to the already-hardened virus.CampaignConfig.Validate.
func (s Scenario) Validate() error {
	if s.Version != ScenarioVersion {
		return fmt.Errorf("attacksearch: scenario version %d, this build reads %d", s.Version, ScenarioVersion)
	}
	if len(s.Name) > 256 {
		return fmt.Errorf("attacksearch: scenario name longer than 256 bytes")
	}
	if _, err := schemes.ByName(s.Scheme, schemes.Options{}); err != nil {
		return fmt.Errorf("attacksearch: scenario scheme: %w", err)
	}
	if !(s.Racks >= 1 && s.Racks <= 64) {
		return fmt.Errorf("attacksearch: racks %d out of [1,64]", s.Racks)
	}
	if !(s.ServersPerRack >= 1 && s.ServersPerRack <= 64) {
		return fmt.Errorf("attacksearch: servers per rack %d out of [1,64]", s.ServersPerRack)
	}
	if !(s.TickMS >= 10 && s.TickMS <= 60_000) {
		return fmt.Errorf("attacksearch: tick %d ms out of [10,60000]", s.TickMS)
	}
	if !(s.DurationS > 0 && s.DurationS <= 3600) {
		return fmt.Errorf("attacksearch: duration %v s out of (0,3600]", s.DurationS)
	}
	if ticks := s.DurationS * 1000 / float64(s.TickMS); !(ticks <= 200_000) {
		return fmt.Errorf("attacksearch: %v s at %d ms is %.0f ticks (limit 200000)", s.DurationS, s.TickMS, ticks)
	}
	if !(s.BGMean >= 0 && s.BGMean <= 1) {
		return fmt.Errorf("attacksearch: background mean %v out of [0,1]", s.BGMean)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ramp_ms", s.RampMS},
		{"spike_width_ms", s.SpikeWidthMS},
		{"prep_s", s.PrepS},
		{"patience_s", s.PatienceS},
		{"phase_offset_ms", s.PhaseOffsetMS},
	} {
		if !(f.v >= 0 && f.v <= 86_400_000) {
			return fmt.Errorf("attacksearch: %s %v out of [0,86400000]", f.name, f.v)
		}
	}
	if !(s.Groups >= 1 && s.Groups <= s.Racks) {
		return fmt.Errorf("attacksearch: %d groups out of [1,racks=%d]", s.Groups, s.Racks)
	}
	if !(s.NodesPerGroup >= 1 && s.NodesPerGroup <= s.ServersPerRack) {
		return fmt.Errorf("attacksearch: %d nodes per group out of [1,servers_per_rack=%d]", s.NodesPerGroup, s.ServersPerRack)
	}
	for name, e := range s.Expect {
		if _, err := schemes.ByName(name, schemes.Options{}); err != nil {
			return fmt.Errorf("attacksearch: expectation scheme: %w", err)
		}
		if !(e.TimeToTripS >= 0 && e.TimeToTripS <= s.DurationS) {
			return fmt.Errorf("attacksearch: expectation %s time-to-trip %v out of [0,%v]", name, e.TimeToTripS, s.DurationS)
		}
		if e.EffectiveAttacks < 0 {
			return fmt.Errorf("attacksearch: expectation %s negative effective attacks", name)
		}
	}
	// The virus layer's own validation finishes the job (peak/sustain
	// ordering, jitter ranges, spike-vs-period feasibility, non-finite
	// schedule parameters).
	if _, err := s.Campaign(); err != nil {
		return err
	}
	return nil
}

// Campaign maps the scenario's attack parameters onto the virus layer's
// coordinated campaign model.
func (s Scenario) Campaign() (virus.CampaignConfig, error) {
	c := virus.CampaignConfig{
		Base: virus.Config{
			Profile: virus.Profile{
				Name:            "search",
				PeakFraction:    s.PeakFraction,
				SustainFraction: s.SustainFraction,
				RampTime:        time.Duration(s.RampMS * float64(time.Millisecond)),
				Jitter:          s.Jitter,
			},
			SpikeWidth:      time.Duration(s.SpikeWidthMS * float64(time.Millisecond)),
			SpikesPerMinute: s.SpikesPerMinute,
			RestFraction:    s.RestFraction,
			PrepDuration:    time.Duration(s.PrepS * float64(time.Second)),
			MaxPhaseI:       time.Duration(s.PatienceS * float64(time.Second)),
			PhaseJitter:     s.PhaseJitter,
			AmplitudeScale:  s.AmplitudeScale,
			Seed:            s.Seed,
		},
		Groups:      s.Groups,
		PhaseOffset: time.Duration(s.PhaseOffsetMS * float64(time.Millisecond)),
	}
	if err := c.Validate(); err != nil {
		return virus.CampaignConfig{}, err
	}
	return c, nil
}

// Tick returns the simulation step.
func (s Scenario) Tick() time.Duration { return time.Duration(s.TickMS) * time.Millisecond }

// Duration returns the simulated horizon.
func (s Scenario) Duration() time.Duration {
	return time.Duration(s.DurationS * float64(time.Second))
}

// AttackSpecs builds the campaign's fresh per-group attack controllers
// and their server placements: group g compromises the first
// NodesPerGroup slots of rack g. Controllers are single-run state; call
// this once per sim.Run.
func (s Scenario) AttackSpecs() ([]sim.AttackSpec, error) {
	camp, err := s.Campaign()
	if err != nil {
		return nil, err
	}
	ctrls, err := camp.Build()
	if err != nil {
		return nil, err
	}
	specs := make([]sim.AttackSpec, len(ctrls))
	for g, a := range ctrls {
		servers := make([]int, s.NodesPerGroup)
		for i := range servers {
			servers[i] = g*s.ServersPerRack + i
		}
		specs[g] = sim.AttackSpec{Servers: servers, Attack: a}
	}
	return specs, nil
}

// Background builds the scenario's per-server background utilization
// series. The result is read-only under sim's concurrency contract and
// may be shared by every run of the same scenario environment.
func (s Scenario) Background() []*stats.Series {
	return stats.NoisyUtilization(s.Racks*s.ServersPerRack, s.BGMean,
		s.Duration(), 10*time.Second, runner.DeriveSeed(s.Seed, "attacksearch/bg"))
}

// SimConfig assembles the engine configuration for running this scenario
// against the named scheme. bg may carry a pre-built Background() result
// shared across runs; nil builds one. The returned config records
// nothing and does not stop on trip — callers layer their own policy on
// top (Evaluate stops on trip, the corpus replay runs the full horizon).
func (s Scenario) SimConfig(schemeName string, bg []*stats.Series) (sim.Config, sim.Scheme, error) {
	cfg := sim.Config{
		Key:            "attacksearch/" + s.Name + "/" + schemeName,
		Racks:          s.Racks,
		ServersPerRack: s.ServersPerRack,
		Tick:           s.Tick(),
		Duration:       s.Duration(),
	}
	scheme, err := schemes.Deploy(&cfg, schemeName, schemes.DefaultMicroFraction)
	if err != nil {
		return sim.Config{}, nil, err
	}
	if cfg.Attacks, err = s.AttackSpecs(); err != nil {
		return sim.Config{}, nil, err
	}
	if bg == nil {
		bg = s.Background()
	}
	cfg.Background = bg
	return cfg, scheme, nil
}

// Encode writes the scenario as canonical indented JSON with a trailing
// newline — the corpus file format. Encoding is deterministic (Go
// marshals struct fields in declaration order and map keys sorted), so
// corpus diffs stay reviewable.
func (s Scenario) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// DecodeScenario parses and validates one scenario document. Unknown
// fields are rejected — a corpus file from a newer format version fails
// here rather than silently dropping the fields this build cannot see —
// and the scenario must pass Validate before it is returned.
func DecodeScenario(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("attacksearch: decode scenario: %w", err)
	}
	// A corpus file holds exactly one document.
	if dec.More() {
		return Scenario{}, fmt.Errorf("attacksearch: trailing data after scenario document")
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadScenario reads one scenario file.
func LoadScenario(path string) (Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	s, err := DecodeScenario(bytes.NewReader(b))
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// WriteScenario writes one scenario file in the canonical encoding. A
// scenario that fails Validate, which LoadCorpus would reject, is not
// written.
func WriteScenario(path string, s Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
