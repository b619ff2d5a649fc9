package battery

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fixedstep"
	"repro/internal/units"
)

// KiBaM is the kinetic battery model (Manwell & McGowan) the paper uses
// for charge/discharge accounting. The charge is split across two wells:
// an available well (fraction c of capacity) that supplies the load
// directly, and a bound well (fraction 1−c) that feeds the available well
// at a rate governed by the constant k. The model reproduces the two
// lead-acid effects that matter for power-attack analysis:
//
//   - the rate-capacity effect: sustained high-rate discharge exhausts the
//     available well long before the nominal capacity is spent, and
//   - the recovery effect: a rested battery regains deliverable charge as
//     bound charge migrates back.
//
// State is kept in joules; power plays the role of current (constant bus
// voltage).
type KiBaM struct {
	capacity units.Joules // total nominal capacity
	c        float64      // available-well fraction, in (0, 1)
	k        float64      // well-coupling rate constant, 1/s

	y1, y2 float64 // available / bound charge, joules
	leak   float64 // self-discharge rate, 1/s

	maxDischarge units.Watts
	maxCharge    units.Watts

	// Per-dt closed-form coefficients (fixed-timestep kernel layer): the
	// engine steps a battery with one constant tick, so the exp-derived
	// factors are computed once and reused bit-identically until dt
	// changes. k and leak are immutable after construction, so dt alone
	// keys the slot.
	coefKey fixedstep.Key
	coef    kibamCoef

	// Values derived from the wells, kept in step with them by setWells
	// so every read between two changes returns the stored bits instead
	// of re-deriving them: soc is SOC's clamped ratio; sustain memoizes
	// maxSustainable for the current wells and cached dt (valid while
	// sustainOK); rest records that an idle step at the cached dt left
	// both wells bit-identical, so further idle steps at that dt are
	// no-ops. setWells clears sustainOK and rest, and so does a change of
	// the cached dt.
	soc       float64
	sustain   float64
	sustainOK bool
	rest      bool

	statTracker
}

// kibamCoef holds the constant-dt factors of the Manwell–McGowan closed
// form. Each field stores exactly the value the direct expression
// produces, so substituting them into the formulas is bit-identical to
// recomputing (pinned by TestKiBaMCoefBitIdentity).
type kibamCoef struct {
	t       float64 // dt in seconds
	ekt     float64 // exp(-k·t)
	omekt   float64 // 1 - ekt
	ktm1e   float64 // k·t - 1 + ekt
	decay   float64 // exp(-leak·t); 1 when the battery has no leak
	sustDen float64 // omekt/k + c·ktm1e/k, maxSustainable's denominator
}

// coefFor returns the closed-form coefficients for dt, recomputing only
// when dt differs from the cached step. A recompute also drops the
// maxSustainable memo and the rest flag, which hold for the old dt only.
func (b *KiBaM) coefFor(dt time.Duration) *kibamCoef {
	if !b.coefKey.Hit(dt) {
		t := dt.Seconds()
		k := b.k
		ekt := math.Exp(-k * t)
		b.coef = kibamCoef{
			t:     t,
			ekt:   ekt,
			omekt: 1 - ekt,
			ktm1e: k*t - 1 + ekt,
			decay: 1,
		}
		b.coef.sustDen = b.coef.omekt/k + b.c*b.coef.ktm1e/k
		if b.leak > 0 {
			b.coef.decay = math.Exp(-b.leak * t)
		}
		b.sustainOK = false
		b.rest = false
	}
	return &b.coef
}

// KiBaMConfig parameterizes a KiBaM battery.
type KiBaMConfig struct {
	// Capacity is the nominal energy capacity.
	Capacity units.Joules
	// C is the available-well fraction. Lead-acid batteries are typically
	// in the 0.2–0.7 range; 0 selects the default 0.62.
	C float64
	// K is the well-coupling rate constant in 1/s. 0 selects the default
	// 4.5e-4 (≈1.6/hour), a common lead-acid fit.
	K float64
	// MaxDischarge is the rated maximum discharge power. 0 selects
	// capacity/(300 s): the "85 W for 5 minutes from a 2 Ah cell" rating
	// cited in the paper scaled to this capacity.
	MaxDischarge units.Watts
	// MaxCharge is the rated maximum charge power. 0 selects a C/5-hour
	// charge rate.
	MaxCharge units.Watts
	// InitialSOC is the starting state of charge; 0 means full (1.0).
	InitialSOC float64
	// SelfDischargePerMonth is the fraction of stored charge lost per
	// 30 days at rest (lead-acid loses ~3%/month). 0 disables the leak.
	SelfDischargePerMonth float64
}

// Default KiBaM parameters (lead-acid fits from the KiBaM literature).
const (
	DefaultC = 0.62
	DefaultK = 4.5e-4 // 1/s
)

// NewKiBaM constructs a battery from cfg, applying documented defaults.
// Range checks are written in accept-range (negated) form so NaN and ±Inf
// fields are rejected instead of slipping past reject-range comparisons.
func NewKiBaM(cfg KiBaMConfig) (*KiBaM, error) {
	if !(cfg.Capacity > 0) || math.IsInf(float64(cfg.Capacity), 0) {
		return nil, fmt.Errorf("battery: capacity must be positive and finite, got %v", cfg.Capacity)
	}
	c := cfg.C
	if c == 0 {
		c = DefaultC
	}
	if !(c > 0 && c < 1) {
		return nil, fmt.Errorf("battery: well fraction c must be in (0,1), got %v", c)
	}
	k := cfg.K
	if k == 0 {
		k = DefaultK
	}
	if !(k > 0) || math.IsInf(k, 0) {
		return nil, fmt.Errorf("battery: rate constant k must be positive and finite, got %v", k)
	}
	maxD := cfg.MaxDischarge
	if maxD == 0 {
		maxD = units.Watts(float64(cfg.Capacity) / 300)
	}
	if !(maxD > 0) || math.IsInf(float64(maxD), 0) {
		return nil, fmt.Errorf("battery: max discharge must be positive and finite, got %v", maxD)
	}
	maxC := cfg.MaxCharge
	if maxC == 0 {
		maxC = units.Watts(float64(cfg.Capacity) / (5 * 3600))
	}
	if !(maxC > 0) || math.IsInf(float64(maxC), 0) {
		return nil, fmt.Errorf("battery: max charge must be positive and finite, got %v", maxC)
	}
	soc := cfg.InitialSOC
	if soc == 0 {
		soc = 1
	}
	if !(soc >= 0 && soc <= 1) {
		return nil, fmt.Errorf("battery: initial SOC must be in [0,1], got %v", soc)
	}
	if !(cfg.SelfDischargePerMonth >= 0 && cfg.SelfDischargePerMonth < 1) {
		return nil, fmt.Errorf("battery: self-discharge %v out of [0,1)", cfg.SelfDischargePerMonth)
	}
	leak := 0.0
	if cfg.SelfDischargePerMonth > 0 {
		// Convert the monthly fraction to a continuous rate (1/s).
		leak = -math.Log(1-cfg.SelfDischargePerMonth) / (30 * 24 * 3600)
	}
	b := &KiBaM{
		capacity:     cfg.Capacity,
		c:            c,
		k:            k,
		maxDischarge: maxD,
		maxCharge:    maxC,
		leak:         leak,
	}
	b.setWells(c*float64(cfg.Capacity)*soc, (1-c)*float64(cfg.Capacity)*soc)
	b.wasAbove = soc >= deepDischargeSOC
	return b, nil
}

// MustKiBaM is NewKiBaM that panics on configuration error; for use in
// presets and tests where the config is a literal.
func MustKiBaM(cfg KiBaMConfig) *KiBaM {
	b, err := NewKiBaM(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// step advances the wells by dt under constant external power p
// (positive = discharge, negative = charge) using the closed-form KiBaM
// solution for constant current.
func (b *KiBaM) step(p float64, dt time.Duration) {
	if dt <= 0 {
		return
	}
	co := b.coefFor(dt)
	k := b.k
	y0 := b.y1 + b.y2
	c := b.c
	// Manwell–McGowan closed form, with the per-dt factors (co.ekt =
	// exp(-k·t), co.omekt = 1-ekt, co.ktm1e = k·t-1+ekt) cached. The
	// expression groups exactly as the direct formula did, so the result
	// is bit-identical.
	y1 := b.y1*co.ekt + (y0*k*c-p)*co.omekt/k - p*c*co.ktm1e/k
	y2 := b.y2*co.ekt + y0*(1-c)*co.omekt - p*(1-c)*co.ktm1e/k
	// Self-discharge leaks both wells.
	if b.leak > 0 {
		y1 *= co.decay
		y2 *= co.decay
	}
	// Clamp tiny numerical excursions.
	b.setWells(max(0, min(y1, c*float64(b.capacity))), max(0, min(y2, (1-c)*float64(b.capacity))))
}

// setWells stores new well contents and brings everything derived from
// them up to date: SOC's clamped ratio is recomputed (the clamp keeps it
// in [0,1] where splitting the capacity across the wells rounds the sum a
// few ULPs above the capacity), and the maxSustainable memo and the rest
// flag are dropped. Every write to the wells goes through here.
func (b *KiBaM) setWells(y1, y2 float64) {
	b.y1, b.y2 = y1, y2
	b.soc = min(1, max(0, (y1+y2)/float64(b.capacity)))
	b.sustainOK = false
	b.rest = false
}

// maxSustainable returns the largest constant discharge power the battery
// can sustain for the whole step without the available well going
// negative, ignoring the power rating. The result is a pure function of
// the wells and dt, so it is memoized until either changes.
func (b *KiBaM) maxSustainable(dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	co := b.coefFor(dt)
	if b.sustainOK {
		return b.sustain
	}
	k := b.k
	y0 := b.y1 + b.y2
	c := b.c
	// y1(t) = A − p·B with A, B >= 0; p_max solves y1(t) = 0.
	a := b.y1*co.ekt + y0*k*c*co.omekt/k
	p := 0.0
	if !(co.sustDen <= 0) {
		p = a / co.sustDen
	}
	b.sustain, b.sustainOK = p, true
	return p
}

// Discharge implements Store. A NaN request is treated as zero (the
// negated comparison sends it down the idle path).
func (b *KiBaM) Discharge(req units.Watts, dt time.Duration) units.Watts {
	if !(req > 0) || dt <= 0 {
		b.Idle(dt)
		return 0
	}
	p := min(float64(req), float64(b.maxDischarge))
	p = min(p, b.maxSustainable(dt))
	if p <= 0 {
		b.Idle(dt)
		return 0
	}
	b.step(p, dt)
	got := units.Watts(p)
	b.recordOut(got, b.coef.t, b.soc)
	return got
}

// Charge implements Store. A NaN offer is treated as zero.
func (b *KiBaM) Charge(offered units.Watts, dt time.Duration) units.Watts {
	if !(offered > 0) || dt <= 0 {
		b.Idle(dt)
		return 0
	}
	p := min(float64(offered), float64(b.maxCharge))
	// Do not overfill: cap by the remaining headroom spread over the step.
	headroom := float64(b.capacity) - (b.y1 + b.y2)
	p = min(p, headroom/b.coefFor(dt).t)
	if p <= 0 {
		b.Idle(dt)
		return 0
	}
	b.step(-p, dt)
	got := units.Watts(p)
	b.recordIn(got, b.coef.t, b.soc)
	return got
}

// Deliverable implements Store: the lesser of the power rating and what
// the available well can sustain for dt.
func (b *KiBaM) Deliverable(dt time.Duration) units.Watts {
	if dt <= 0 {
		return 0
	}
	p := b.maxSustainable(dt)
	if rated := float64(b.maxDischarge); p > rated {
		p = rated
	}
	if p < 0 {
		p = 0
	}
	return units.Watts(p)
}

// Idle implements Store. step is a pure function of the wells and dt, so
// once an idle step at the cached dt leaves both wells bit-identical,
// every further idle step at that dt would too: Idle then returns at
// once until a charge, a discharge or a new dt moves the wells or the
// coefficients.
func (b *KiBaM) Idle(dt time.Duration) {
	if dt <= 0 {
		return
	}
	b.coefFor(dt)
	if b.rest {
		return
	}
	y1, y2 := b.y1, b.y2
	b.step(0, dt)
	b.rest = math.Float64bits(b.y1) == math.Float64bits(y1) &&
		math.Float64bits(b.y2) == math.Float64bits(y2)
}

// SOC implements Store: the total charge over the capacity, clamped to
// [0,1] and refreshed whenever the wells change (see setWells).
func (b *KiBaM) SOC() float64 { return b.soc }

// AvailableSOC returns the fill level of the available well alone, the
// quantity an LVD device effectively senses through terminal voltage.
func (b *KiBaM) AvailableSOC() float64 {
	return min(1, max(0, b.y1/(b.c*float64(b.capacity))))
}

// Capacity implements Store.
func (b *KiBaM) Capacity() units.Joules { return b.capacity }

// MaxDischarge implements Store.
func (b *KiBaM) MaxDischarge() units.Watts { return b.maxDischarge }

// MaxCharge implements Store.
func (b *KiBaM) MaxCharge() units.Watts { return b.maxCharge }

// UsageStats returns the accumulated usage counters.
func (b *KiBaM) UsageStats() Stats { return b.stats }

// SizeForAutonomy returns the nominal capacity a KiBaM battery with the
// given c and k (0 selects defaults) needs so that it sustains load for
// exactly the autonomy duration starting from full charge. This is how
// rack cabinets are sized from the paper's "50 s at full rack load" spec:
// because of the rate-capacity effect the nominal capacity must exceed
// load×autonomy.
//
// The search is a pure function of its arguments but expensive — a
// 40-step binary search of full 100 ms-tick drain simulations — and every
// rack cabinet of every run re-derives it, so results are memoized
// process-wide (see sizecache.go).
func SizeForAutonomy(load units.Watts, autonomy time.Duration, c, k float64) units.Joules {
	if c == 0 {
		c = DefaultC
	}
	if k == 0 {
		k = DefaultK
	}
	if load <= 0 || autonomy <= 0 {
		return 0
	}
	// Non-finite parameters bypass the cache: NaN keys never compare
	// equal, so caching them would grow the map without ever hitting, and
	// the uncached path preserves MustKiBaM's panic behaviour.
	if math.IsNaN(c) || math.IsNaN(k) || math.IsInf(k, 0) ||
		math.IsNaN(float64(load)) || math.IsInf(float64(load), 0) {
		return sizeForAutonomyUncached(load, autonomy, c, k)
	}
	return cachedSizeForAutonomy(load, autonomy, c, k)
}

// sizeForAutonomyUncached runs the binary search directly.
func sizeForAutonomyUncached(load units.Watts, autonomy time.Duration, c, k float64) units.Joules {
	// Binary search on capacity: sustained time is monotone in capacity.
	need := float64(load) * autonomy.Seconds()
	lo, hi := need, need/c*2
	sustains := func(cap_ float64) bool {
		b := MustKiBaM(KiBaMConfig{
			Capacity:     units.Joules(cap_),
			C:            c,
			K:            k,
			MaxDischarge: load * 10, // rating out of the way
		})
		const tick = 100 * time.Millisecond
		for elapsed := time.Duration(0); elapsed < autonomy; elapsed += tick {
			if b.Discharge(load, tick) < load {
				return false
			}
		}
		return true
	}
	for !sustains(hi) {
		hi *= 2
		if hi > need*1e3 {
			break
		}
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if sustains(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return units.Joules(hi)
}
