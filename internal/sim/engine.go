package sim

import (
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/units"
)

// LevelReporter is implemented by schemes that maintain a PAD security
// level; the recorder samples it when present.
type LevelReporter interface {
	Level() core.Level
}

// Result summarizes one simulation run.
type Result struct {
	// Key echoes Config.Key, identifying this run within a sweep.
	Key string
	// Scheme is the evaluated scheme's name.
	Scheme string
	// Tripped reports whether any breaker tripped.
	Tripped bool
	// SurvivalTime is the offset of the first breaker trip, or the full
	// run duration when nothing tripped. Survival is measured from the
	// run start, matching the paper's "beginning of the attack to the
	// first overload".
	SurvivalTime time.Duration
	// FirstTripRack is the rack whose feed tripped first, or -1 when the
	// cluster PDU tripped first or nothing tripped.
	FirstTripRack int
	// EffectiveAttacks counts rack-feed excursions above the tolerated
	// overload limit (rising edges), the paper's Figure 8 metric.
	EffectiveAttacks int
	// Throughput is delivered work over demanded work across the run.
	Throughput float64
	// MeanShedRatio is the average fraction of servers held asleep.
	MeanShedRatio float64
	// EnergyFromBatteries is the total energy drawn from rack batteries.
	EnergyFromBatteries units.Joules
	// MaxRackDischarge is the highest single-rack battery discharge power
	// granted at any tick — the aging-stress proxy Algorithm 1's PIdeal
	// bound exists to limit.
	MaxRackDischarge units.Watts
	// EnergyServed is the total electrical energy the servers consumed.
	EnergyServed units.Joules
	// EnergyFromGrid is the total energy drawn from the utility feed
	// (including storage recharge).
	EnergyFromGrid units.Joules
	// EnergyIntoStorage is the total charge energy accepted by batteries
	// and μDEB banks. Conservation holds exactly:
	// EnergyServed = EnergyFromGrid − EnergyIntoStorage
	//              + EnergyFromBatteries + EnergyFromMicro.
	EnergyIntoStorage units.Joules
	// EnergyFromMicro is the total energy the μDEBs shaved.
	EnergyFromMicro units.Joules
	// Recording holds time series when Config.Record was set.
	Recording *Recording
}

// Recording holds sampled time series from a run.
type Recording struct {
	// Step is the sampling resolution.
	Step time.Duration
	// TotalGrid is the cluster feed draw.
	TotalGrid *stats.Series
	// RackSOC has one battery SOC series per rack.
	RackSOC []*stats.Series
	// RackDraw has one feed-draw series per rack.
	RackDraw []*stats.Series
	// MicroSOC has one μDEB SOC series per rack, or nil when the run
	// deployed no μDEB (Config.MicroDEBFactory was nil).
	MicroSOC []*stats.Series
	// Levels samples the scheme's security level (0 when not reported).
	Levels []core.Level
	// ShedRatio samples the fraction of servers asleep.
	ShedRatio *stats.Series
	// AttackUtil samples the utilization the power virus commanded
	// (zero when no attack is configured).
	AttackUtil *stats.Series
}

// Run executes one simulation and returns its result.
//
// Run is a loop over the single-tick Stepper: NewStepper does the
// setup, each Step advances one interval with trace-derived demand, and
// Result finalizes. Manual stepping through the same API is guaranteed
// to produce identical results (pinned by TestRunEqualsManualStepping).
//
// The per-tick loop is allocation-free in steady state: every buffer the
// engine needs (soft limits, draws, the scheme's view and action slices,
// the shed selector's scratch) is allocated once up front and reused,
// and schemes plan into the engine's action buffer through PlanInto.
func Run(cfg Config, scheme Scheme) (*Result, error) {
	st, err := NewStepper(cfg, scheme)
	if err != nil {
		return nil, err
	}
	for {
		ok, err := st.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if cfg.Trace != nil {
		// Finalize the trace header with the realized run length so
		// analysis can account the final state's dwell time (a StopOnTrip
		// run ends short of the configured horizon).
		m := cfg.Trace.Meta()
		m.Ticks = int64(st.Ticks())
		cfg.Trace.SetMeta(m)
	}
	return st.Result(), nil
}

func newRecording(cfg Config) *Recording {
	// Sized for the full horizon so steady-state recording never grows a
	// slice; a StopOnTrip run simply leaves capacity unused.
	n := int(cfg.Duration/cfg.RecordStep) + 1
	rec := &Recording{
		Step:       cfg.RecordStep,
		TotalGrid:  stats.NewSeriesWithCap(cfg.RecordStep, n),
		ShedRatio:  stats.NewSeriesWithCap(cfg.RecordStep, n),
		AttackUtil: stats.NewSeriesWithCap(cfg.RecordStep, n),
		Levels:     make([]core.Level, 0, n),
	}
	for i := 0; i < cfg.Racks; i++ {
		rec.RackSOC = append(rec.RackSOC, stats.NewSeriesWithCap(cfg.RecordStep, n))
		rec.RackDraw = append(rec.RackDraw, stats.NewSeriesWithCap(cfg.RecordStep, n))
	}
	// MicroSOC stays nil without μDEB hardware, as the field documents.
	if cfg.MicroDEBFactory != nil {
		for i := 0; i < cfg.Racks; i++ {
			rec.MicroSOC = append(rec.MicroSOC, stats.NewSeriesWithCap(cfg.RecordStep, n))
		}
	}
	return rec
}

// topKSelector marks the k highest-demand server slots of a rack using a
// reusable size-k min-heap: O(n log k) per call, no allocations after
// construction. Ties break toward the lower index, matching the
// selection order of the original O(k·n) rescan. The selector holds only
// private heap scratch and writes marks into a caller-provided slice; the
// mark arrays live in the stepper's struct-of-arrays scratch.
type topKSelector struct {
	heap []int
}

func newTopKSelector(n int) *topKSelector {
	return &topKSelector{heap: make([]int, 0, n)}
}

// worse reports whether slot a ranks strictly below slot b in selection
// priority (lower demand, or equal demand at a higher index).
func worse(us []float64, a, b int) bool {
	if us[a] != us[b] {
		return us[a] < us[b]
	}
	return a > b
}

// markInto sets marked[i] true exactly at the k highest-demand indices
// of us, false elsewhere. len(marked) must equal len(us).
func (t *topKSelector) markInto(marked []bool, us []float64, k int) {
	clear(marked)
	if k <= 0 {
		return
	}
	if k >= len(us) {
		for i := range marked {
			marked[i] = true
		}
		return
	}
	// Min-heap of the k best slots seen so far; the root is the weakest
	// keeper and is evicted by any stronger candidate.
	h := t.heap[:0]
	for i := range us {
		if len(h) < k {
			h = append(h, i)
			// Sift up.
			c := len(h) - 1
			for c > 0 {
				p := (c - 1) / 2
				if !worse(us, h[c], h[p]) {
					break
				}
				h[c], h[p] = h[p], h[c]
				c = p
			}
			continue
		}
		if worse(us, i, h[0]) {
			continue
		}
		h[0] = i
		// Sift down.
		p := 0
		for {
			l, r := 2*p+1, 2*p+2
			min := p
			if l < len(h) && worse(us, h[l], h[min]) {
				min = l
			}
			if r < len(h) && worse(us, h[r], h[min]) {
				min = r
			}
			if min == p {
				break
			}
			h[p], h[min] = h[min], h[p]
			p = min
		}
	}
	for _, i := range h {
		marked[i] = true
	}
	t.heap = h
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
