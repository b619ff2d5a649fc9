package padsec

import "repro/internal/experiments"

// The paper-reproduction experiment runners. Each regenerates one table
// or figure of the paper and returns both the raw numbers and a rendered
// report table; see EXPERIMENTS.md for the paper-versus-measured record.
//
// Pass ExperimentParams{} for the full-scale runs cmd/experiments uses, or
// ExperimentParams{Quick: true} for second-scale versions that preserve
// the qualitative shapes. ExperimentParams.Workers bounds how many
// independent simulation runs execute at once (0 = GOMAXPROCS, 1 =
// sequential) without changing any output byte: within each experiment,
// or, with the params ExperimentParams.Shared returns, across every
// experiment run with them, as cmd/experiments runs its whole
// invocation. ExperimentParams.Progress streams per-run progress and
// ETA.
var (
	// Fig1 reproduces the outage-cost CDF (survey background, bonus).
	Fig1 = experiments.Fig1
	// Fig5 reproduces the SOC-spread comparison of online vs offline
	// charging.
	Fig5 = experiments.Fig5
	// Fig6 reproduces the two-phase attack demonstration.
	Fig6 = experiments.Fig6
	// Fig7 reproduces the effective-attack demonstration.
	Fig7 = experiments.Fig7
	// Fig8A/B/C reproduce the attack-parameter sweeps (nodes, width,
	// frequency).
	Fig8A = experiments.Fig8A
	Fig8B = experiments.Fig8B
	Fig8C = experiments.Fig8C
	// Table1 reproduces the detection-rate matrix across metering
	// intervals.
	Table1 = experiments.Table1
	// Fig12 reproduces the collected dense/sparse attack traces.
	Fig12 = experiments.Fig12
	// Fig13 reproduces the DEB utilization maps (conventional vs PAD).
	Fig13 = experiments.Fig13
	// Fig14 reproduces the surge/load-shedding study.
	Fig14 = experiments.Fig14
	// Fig15 reproduces the survival-time comparison of the six schemes.
	Fig15 = experiments.Fig15
	// Fig16A/B reproduce the throughput-under-attack comparisons.
	Fig16A = experiments.Fig16A
	Fig16B = experiments.Fig16B
	// Fig17 reproduces the μDEB capacity/cost-efficiency sweep.
	Fig17 = experiments.Fig17
)
