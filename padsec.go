// Package padsec is a library-grade reproduction of "Power Attack
// Defense: Securing Battery-Backed Data Centers" (ISCA 2016): a
// trace-driven simulator for battery-backed data centers under power-virus
// attack, the PAD defense (vDEB battery pooling, μDEB spike shaving, a
// hierarchical security policy with bounded load shedding), the five
// baseline power-management schemes the paper compares against, and an
// experiment harness that regenerates every measured table and figure.
//
// # Quick start
//
//	cfg := padsec.ClusterConfig{
//		Duration:   10 * time.Minute,
//		Background: padsec.FlatBackground(220, 0.55),
//		Attacks: []padsec.AttackSpec{
//			padsec.NewAttack(4, padsec.AttackConfig{Profile: padsec.CPUIntensive}),
//		},
//		StopOnTrip: true,
//	}
//	res, err := padsec.Run(cfg, padsec.NewPAD(padsec.SchemeOptions{}))
//
// ClusterConfig is the one place a run's shape is stated: a scheme
// learns the servers per rack from the cluster it runs on, so
// SchemeOptions carry only policy choices.
//
// The simulator, schemes, threat model, rack battery and super-capacitor
// models and experiment runners live in internal packages; this package re-exports the stable
// surface. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package padsec

import (
	"io"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/placement"
	"repro/internal/powersim"
	"repro/internal/scheduler"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/virus"
)

// Physical quantity types.
type (
	// Watts is electrical power.
	Watts = units.Watts
	// Joules is energy.
	Joules = units.Joules
	// WattHours is energy in watt-hours.
	WattHours = units.WattHours
)

// Simulation types.
type (
	// ClusterConfig describes one simulation run (cluster shape,
	// provisioning, background load, optional attack, recording).
	ClusterConfig = sim.Config
	// SimResult summarizes a run: survival time, effective attacks,
	// throughput, energy accounting and optional recordings.
	SimResult = sim.Result
	// Recording holds the sampled time series of a run.
	Recording = sim.Recording
	// Scheme is a pluggable power-management policy.
	Scheme = sim.Scheme
	// ClusterView is the per-tick state a Scheme observes.
	ClusterView = sim.ClusterView
	// RackView is the per-rack slice of a ClusterView.
	RackView = sim.RackView
	// SchemeAction is a scheme's per-rack decision for one tick.
	SchemeAction = sim.Action
	// AttackSpec places a power virus on specific servers.
	AttackSpec = sim.AttackSpec
	// SchemeOptions tune the built-in schemes. A scheme learns its shape
	// from the cluster it runs on (ClusterView.ServersPerRack).
	SchemeOptions = schemes.Options
)

// Threat-model types.
type (
	// VirusProfile characterizes a power-virus class (CPU/Mem/IO).
	VirusProfile = virus.Profile
	// AttackConfig parameterizes a two-phase attack.
	AttackConfig = virus.Config
	// Attack is the closed-loop two-phase attack controller.
	Attack = virus.Attack
	// AttackScenario is a canned dense/sparse spike schedule.
	AttackScenario = virus.Scenario
)

// Defense building blocks.
type (
	// SecurityLevel is a PAD hierarchical security level (L1/L2/L3).
	SecurityLevel = core.Level
	// PolicyInputs are the signals driving the security level.
	PolicyInputs = core.PolicyInputs
	// BatteryStore is the rack battery cabinet: a KiBaM battery behind
	// a low-voltage disconnect. NewRackBattery builds one.
	BatteryStore = battery.KiBaM
	// ServerModel maps utilization and DVFS state to power.
	ServerModel = powersim.ServerModel
	// Trace is a Google-cluster-style workload trace.
	Trace = trace.Trace
	// TraceConfig parameterizes the synthetic trace generator.
	TraceConfig = trace.SynthConfig
	// ExperimentParams control the paper-reproduction runners.
	ExperimentParams = experiments.Params
	// PlacementPolicy is a cloud VM scheduling policy (pack/spread/random).
	PlacementPolicy = placement.Policy
	// CampaignConfig parameterizes an attacker's co-residency hunt — the
	// preparation phase of the threat model.
	CampaignConfig = placement.CampaignConfig
	// CampaignResult summarizes a co-residency hunt.
	CampaignResult = placement.CampaignResult
	// Job, JobRecord, Impairment and SchedulerConfig drive the job-level
	// service model (the paper's job-scheduler substrate).
	Job             = scheduler.Job
	JobTask         = scheduler.TaskReq
	JobRecord       = scheduler.JobRecord
	Impairment      = scheduler.Impairment
	SchedulerConfig = scheduler.Config
	JobMetrics      = scheduler.Metrics
)

// The calibrated virus profiles and canned scenarios.
var (
	CPUIntensive = virus.CPUIntensive
	MemIntensive = virus.MemIntensive
	IOIntensive  = virus.IOIntensive
	DenseAttack  = virus.DenseAttack
	SparseAttack = virus.SparseAttack
)

// DL585G5 is the evaluated server model (299 W idle, 521 W peak).
var DL585G5 = powersim.DL585G5

// Cloud scheduling policies for the preparation-phase model.
const (
	PackLowestID      = placement.PackLowestID
	SpreadLeastLoaded = placement.SpreadLeastLoaded
	RandomFit         = placement.RandomFit
)

// RunCampaign plays the attacker's co-residency hunt: how many probe VMs
// does it take to land a squad on one rack.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return placement.RunCampaign(cfg)
}

// RunJobs simulates the job-level service model: trace-derived jobs over
// a cluster whose servers suffer the given outage/capping impairments.
func RunJobs(cfg SchedulerConfig, jobs []Job, impairments []Impairment) ([]JobRecord, JobMetrics, error) {
	return scheduler.Run(cfg, jobs, impairments)
}

// JobsFromTrace converts a workload trace into scheduler jobs.
func JobsFromTrace(tr *Trace) []Job { return scheduler.FromTrace(tr) }

// RackOutage marks every server of a rack dark over a window.
func RackOutage(rack, serversPerRack int, from, to time.Duration) []Impairment {
	return scheduler.OutageImpairments(rack, serversPerRack, from, to)
}

// The three security levels.
const (
	Level1 = core.Level1
	Level2 = core.Level2
	Level3 = core.Level3
)

// Run executes one simulation of scheme over cfg.
func Run(cfg ClusterConfig, scheme Scheme) (*SimResult, error) {
	return sim.Run(cfg, scheme)
}

// Scheme constructors (Table III).
var (
	// NewConv builds the conventional baseline (batteries for outages only).
	NewConv = func(o SchemeOptions) Scheme { return schemes.NewConv(o) }
	// NewPS builds the per-rack peak-shaving baseline.
	NewPS = func(o SchemeOptions) Scheme { return schemes.NewPS(o) }
	// NewPSPC builds peak shaving plus fixed 20% power capping.
	NewPSPC = func(o SchemeOptions) Scheme { return schemes.NewPSPC(o) }
	// NewVDEB builds the vDEB-only load-sharing design.
	NewVDEB = func(o SchemeOptions) Scheme { return schemes.NewVDEB(o) }
	// NewUDEB builds the μDEB-only spike-shaving design.
	NewUDEB = func(o SchemeOptions) Scheme { return schemes.NewUDEB(o) }
	// NewPAD builds the full Power Attack Defense.
	NewPAD = func(o SchemeOptions) Scheme { return schemes.NewPAD(o) }
)

// NewAttack places a two-phase power virus on the first n servers of rack
// 0 (the usual victim in the paper's experiments). List the result in
// ClusterConfig.Attacks.
func NewAttack(n int, cfg AttackConfig) AttackSpec {
	servers := make([]int, n)
	for i := range servers {
		servers[i] = i
	}
	return AttackSpec{Servers: servers, Attack: virus.MustNew(cfg)}
}

// FlatBackground builds per-server utilization series pinned at mean —
// the simplest background for experiments and examples.
func FlatBackground(servers int, mean float64) []*stats.Series {
	out := make([]*stats.Series, servers)
	for i := range out {
		s := stats.NewSeries(time.Hour)
		s.Append(mean)
		s.Append(mean)
		out[i] = s
	}
	return out
}

// GenerateTrace produces a synthetic Google-style cluster trace.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// ReadTrace parses a trace in the start,end,machine,cpu row format.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// WriteTrace emits a trace in the row format.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.Write(w, tr) }

// TraceBackground replays a trace into per-server utilization series at
// the given step, ready for ClusterConfig.Background.
func TraceBackground(tr *Trace, step time.Duration) ([]*stats.Series, error) {
	return trace.MachineSeries(tr, step)
}

// NewRackBattery builds the paper's Facebook-V1-style rack battery
// cabinet, full, with 50 s autonomy at full rack load and its
// low-voltage disconnect armed.
func NewRackBattery(rackNameplate Watts) *BatteryStore {
	return battery.NewRackCabinet(rackNameplate, 0, 0)
}

// NewMicroDEBFactory returns a ClusterConfig.MicroDEBFactory installing a
// μDEB bank holding the given fraction of the rack cabinet's energy on
// every rack.
func NewMicroDEBFactory(fraction float64) func(nameplate, budget Watts) *core.MicroDEB {
	return schemes.MicroDEBFactory(fraction)
}
