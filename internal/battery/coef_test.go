package battery

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// refKiBaM is a cache-free reimplementation of the KiBaM closed form:
// every transcendental is recomputed with math.Exp on every call, with
// the exact expression grouping kibam.go uses, every clamp is
// math.Min/math.Max where kibam.go uses the builtins, SOC and
// maxSustainable are derived on every read, and every idle call steps.
// It is the reference the cached kernel must match bit-for-bit — the
// coefficient cache, the SOC field, the maxSustainable memo and the idle
// rest flag are pure hoists and the builtins keep math.Min/Max's ±0
// rules, so any ULP or sign of divergence is a bug.
type refKiBaM struct {
	capacity     units.Joules
	c, k         float64
	y1, y2       float64
	leak         float64
	maxDischarge units.Watts
	maxCharge    units.Watts
}

func newRefKiBaM(b *KiBaM) *refKiBaM {
	return &refKiBaM{
		capacity: b.capacity, c: b.c, k: b.k, y1: b.y1, y2: b.y2, leak: b.leak,
		maxDischarge: b.maxDischarge, maxCharge: b.maxCharge,
	}
}

// edgeFloats are the operands the min/max exactness tests sweep: NaN,
// both zeros, both infinities, out-of-range, in-range and boundary
// values, and the smallest subnormal.
var edgeFloats = []float64{
	math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	-1, 0.05, 0.1, 0.5, 1, 2, math.SmallestNonzeroFloat64,
}

// sameFloat reports whether got and want are the same float64 bit for
// bit — unlike ==, it tells −0 from +0 — counting any two NaNs as the
// same: neither math.Min nor the builtin min fixes a NaN's payload, and
// no output observes one.
func sameFloat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) ||
		(math.IsNaN(got) && math.IsNaN(want))
}

func (r *refKiBaM) step(p float64, dt time.Duration) {
	if dt <= 0 {
		return
	}
	t := dt.Seconds()
	k := r.k
	c := r.c
	y0 := r.y1 + r.y2
	ekt := math.Exp(-k * t)
	y1 := r.y1*ekt + (y0*k*c-p)*(1-ekt)/k - p*c*(k*t-1+ekt)/k
	y2 := r.y2*ekt + y0*(1-c)*(1-ekt) - p*(1-c)*(k*t-1+ekt)/k
	if r.leak > 0 {
		decay := math.Exp(-r.leak * t)
		y1 *= decay
		y2 *= decay
	}
	y1 = math.Max(0, math.Min(y1, c*float64(r.capacity)))
	y2 = math.Max(0, math.Min(y2, (1-c)*float64(r.capacity)))
	r.y1, r.y2 = y1, y2
}

func (r *refKiBaM) maxSustainable(dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	t := dt.Seconds()
	k := r.k
	c := r.c
	y0 := r.y1 + r.y2
	ekt := math.Exp(-k * t)
	a := r.y1*ekt + y0*k*c*(1-ekt)/k
	bb := (1-ekt)/k + c*(k*t-1+ekt)/k
	if bb <= 0 {
		return 0
	}
	return a / bb
}

func (r *refKiBaM) deliverable(dt time.Duration) units.Watts {
	if dt <= 0 {
		return 0
	}
	p := r.maxSustainable(dt)
	if p > float64(r.maxDischarge) {
		p = float64(r.maxDischarge)
	}
	if p < 0 {
		p = 0
	}
	return units.Watts(p)
}

func (r *refKiBaM) idle(dt time.Duration) {
	if dt > 0 {
		r.step(0, dt)
	}
}

func (r *refKiBaM) discharge(req units.Watts, dt time.Duration) units.Watts {
	if !(req > 0) || dt <= 0 {
		r.step(0, dt)
		return 0
	}
	p := math.Min(float64(req), float64(r.maxDischarge))
	p = math.Min(p, r.maxSustainable(dt))
	if p <= 0 {
		r.step(0, dt)
		return 0
	}
	r.step(p, dt)
	return units.Watts(p)
}

func (r *refKiBaM) charge(offered units.Watts, dt time.Duration) units.Watts {
	if !(offered > 0) || dt <= 0 {
		r.step(0, dt)
		return 0
	}
	p := math.Min(float64(offered), float64(r.maxCharge))
	headroom := float64(r.capacity) - (r.y1 + r.y2)
	p = math.Min(p, headroom/dt.Seconds())
	if p <= 0 {
		r.step(0, dt)
		return 0
	}
	r.step(-p, dt)
	return units.Watts(p)
}

func (r *refKiBaM) soc() float64 {
	return math.Min(1, math.Max(0, (r.y1+r.y2)/float64(r.capacity)))
}

func (r *refKiBaM) availableSOC() float64 {
	return math.Min(1, math.Max(0, r.y1/(r.c*float64(r.capacity))))
}

// mismatch describes the first of b's wells, SOC, AvailableSOC,
// maxSustainable(dt) and Deliverable(dt) that differs from the
// reference's bit for bit, or returns "".
func (r *refKiBaM) mismatch(b *KiBaM, dt time.Duration) string {
	if !sameFloat(b.y1, r.y1) || !sameFloat(b.y2, r.y2) {
		return fmt.Sprintf("wells (%v, %v) diverged from ref (%v, %v)", b.y1, b.y2, r.y1, r.y2)
	}
	if got, want := b.SOC(), r.soc(); !sameFloat(got, want) {
		return fmt.Sprintf("SOC = %v (%#x), ref %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := b.AvailableSOC(), r.availableSOC(); !sameFloat(got, want) {
		return fmt.Sprintf("AvailableSOC = %v (%#x), ref %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := b.maxSustainable(dt), r.maxSustainable(dt); !sameFloat(got, want) {
		return fmt.Sprintf("maxSustainable(%v) = %v, ref %v (Δ %g)", dt, got, want, got-want)
	}
	if got, want := b.Deliverable(dt), r.deliverable(dt); !sameFloat(float64(got), float64(want)) {
		return fmt.Sprintf("Deliverable(%v) = %v, ref %v", dt, got, want)
	}
	return ""
}

// kibamOp is one op of the reference harness: Idle(dt) alone when idle is
// set, otherwise a raw closed-form step of p followed by Discharge (p ≥ 0)
// or Charge (p < 0) of |p| through the public entry points.
type kibamOp struct {
	idle bool
	p    float64
	dt   time.Duration
}

// restCover counts the cache transitions a harness run went through, so
// a test can demand that its op stream reached them: idle calls made at
// rest, dt changes at rest, and charges or discharges that ended a rest.
type restCover struct {
	idles, dtChanges, broken int
	lastDT                   time.Duration
}

func (c *restCover) note(b *KiBaM, op kibamOp) {
	if b.rest {
		switch {
		case op.dt != c.lastDT:
			c.dtChanges++
		case op.idle:
			c.idles++
		default:
			c.broken++
		}
	}
	c.lastDT = op.dt
}

// stepBoth advances a cached battery and the reference through one op
// and demands bit-identical returns and state (see mismatch) before the
// op and after each of its parts.
func stepBoth(t *testing.T, i int, b *KiBaM, ref *refKiBaM, op kibamOp) {
	t.Helper()
	p, dt := op.p, op.dt
	if d := ref.mismatch(b, dt); d != "" {
		t.Fatalf("op %d (dt=%v), before: %s", i, dt, d)
	}
	if op.idle {
		b.Idle(dt)
		ref.idle(dt)
		if d := ref.mismatch(b, dt); d != "" {
			t.Fatalf("op %d Idle(%v): %s", i, dt, d)
		}
		return
	}
	b.step(p, dt)
	ref.step(p, dt)
	if d := ref.mismatch(b, dt); d != "" {
		t.Fatalf("op %d step(p=%v, dt=%v): %s", i, p, dt, d)
	}

	var got, want units.Watts
	name := "Discharge"
	if p >= 0 {
		got, want = b.Discharge(units.Watts(p), dt), ref.discharge(units.Watts(p), dt)
	} else {
		name = "Charge"
		got, want = b.Charge(units.Watts(-p), dt), ref.charge(units.Watts(-p), dt)
	}
	if !sameFloat(float64(got), float64(want)) {
		t.Fatalf("op %d %s(%v, dt=%v) = %v, ref %v", i, name, math.Abs(p), dt, got, want)
	}
	if d := ref.mismatch(b, dt); d != "" {
		t.Fatalf("op %d %s(%v, dt=%v): %s", i, name, math.Abs(p), dt, d)
	}
}

// TestKiBaMSOCExact pins SOC's and AvailableSOC's builtin min/max clamps
// to the math.Min/Max reference for wells set directly to edge values —
// NaN, both zeros, both infinities, negative, subnormal and over-full —
// which the closed form reaches only through degenerate configurations.
// The wells are written through setWells, the one writer that also
// refreshes the cached SOC and drops the maxSustainable memo.
func TestKiBaMSOCExact(t *testing.T) {
	b := MustKiBaM(KiBaMConfig{Capacity: 1})
	ref := newRefKiBaM(b)
	for _, y1 := range edgeFloats {
		for _, y2 := range edgeFloats {
			b.setWells(y1, y2)
			ref.y1, ref.y2 = y1, y2
			if d := ref.mismatch(b, 100*time.Millisecond); d != "" {
				t.Errorf("wells (%v, %v): %s", y1, y2, d)
			}
		}
	}
}

// checkKiBaMAgainstRef drives a cached battery and the exp-per-call
// reference through the same op sequence (see stepBoth), recording the
// rest transitions it passed through in cov.
func checkKiBaMAgainstRef(t *testing.T, b *KiBaM, ops int, cov *restCover, nextOp func(i int) kibamOp) {
	t.Helper()
	ref := newRefKiBaM(b)
	for i := 0; i < ops; i++ {
		op := nextOp(i)
		cov.note(b, op)
		stepBoth(t, i, b, ref, op)
	}
}

// TestKiBaMCoefBitIdentity is the property test pinning the battery's
// caches: across random configurations (c, k, leak, SOC), random powers
// spanning charge and discharge, runs of idles long enough to reach
// rest, and tick widths that alternate between repeats (cache hits) and
// changes (cache invalidation, at rest too), the cached kernel must equal
// the cache-free reference bit for bit after every op.
func TestKiBaMCoefBitIdentity(t *testing.T) {
	rng := stats.NewRNG(71)
	dtPool := []time.Duration{
		100 * time.Millisecond, time.Second, 100 * time.Millisecond,
		33 * time.Millisecond, 5 * time.Second, time.Minute,
		100 * time.Millisecond, 0, -time.Second, 250 * time.Millisecond,
	}
	var cov restCover
	for trial := 0; trial < 200; trial++ {
		r := rng.Split(uint64(trial))
		cfg := KiBaMConfig{
			Capacity:   units.Joules(math.Exp(r.Range(0, 20))), // 1 J … ~5e8 J
			C:          r.Range(0.05, 0.95),
			K:          math.Exp(r.Range(math.Log(1e-6), math.Log(1e-1))),
			InitialSOC: r.Range(0.01, 1),
		}
		if trial%3 == 0 {
			cfg.SelfDischargePerMonth = r.Range(0.001, 0.5)
		}
		if trial%4 == 1 {
			cfg.InitialSOC = 1 // full wells sit at their rest point
		}
		b := MustKiBaM(cfg)
		span := float64(b.maxDischarge) * 2
		checkKiBaMAgainstRef(t, b, 120, &cov, func(i int) kibamOp {
			// Blocks of 20 ops. Idles at one dt, long enough to reach
			// rest; idles alternating between two dts (a dt change at
			// rest); one power step at the idles' dt (ending a rest
			// without a dt change); idles again; then power steps that
			// hold each pool dt for a few ops so the coefficient cache
			// hits, then move on so it re-keys.
			dtA := dtPool[(i/20)%2]
			dtB := dtPool[1-(i/20)%2]
			switch j := i % 20; {
			case j < 6, j > 10 && j < 14:
				return kibamOp{idle: true, dt: dtA}
			case j < 10:
				return kibamOp{idle: true, dt: []time.Duration{dtB, dtA}[j%2]}
			case j == 10:
				return kibamOp{p: r.Range(-span, span), dt: dtA}
			default:
				return kibamOp{p: r.Range(-span, span), dt: dtPool[(i/3)%len(dtPool)]}
			}
		})
	}
	// The op stream must have reached every rest transition, or the
	// comparisons above never exercised the rest flag's resets.
	if cov.idles == 0 || cov.dtChanges == 0 || cov.broken == 0 {
		t.Fatalf("op stream missed a rest transition: %+v", cov)
	}
}

// FuzzKiBaMCoefIdentity extends the property test to fuzzed
// configurations and op streams: for any battery NewKiBaM accepts and
// any idle/power/step sequence, the cached kernel and the cache-free
// reference must agree exactly.
func FuzzKiBaMCoefIdentity(f *testing.F) {
	f.Add(float64(260640), 0.62, 4.5e-4, 1.0, 0.0, []byte("ddddcciiddcc"))
	f.Add(float64(1200), 0.3, 1e-3, 0.05, 0.03, []byte{0, 255, 17, 84, 200, 3})
	f.Add(float64(1), 0.62, 4.5e-4, 0.5, 0.9, []byte("id"))
	f.Add(float64(260640), 0.62, 4.5e-4, 1.0, 0.0, []byte{1, 1, 17, 1, 17, 0xf4, 1, 1, 1, 17, 0x13, 1, 17})
	f.Fuzz(func(t *testing.T, capacity, c, k, soc, leak float64, ops []byte) {
		b, err := NewKiBaM(KiBaMConfig{
			Capacity:              units.Joules(capacity),
			C:                     c,
			K:                     k,
			InitialSOC:            soc,
			SelfDischargePerMonth: leak,
		})
		if err != nil {
			return
		}
		if len(ops) > 128 {
			ops = ops[:128]
		}
		ref := newRefKiBaM(b)
		for i, op := range ops {
			// One byte per op: the high nibble picks dt, op%8 == 1
			// ('i') is an idle, anything else a power step.
			o := kibamOp{
				idle: op%8 == 1,
				p:    (float64(op)/64 - 1) * float64(b.maxDischarge),
				dt:   time.Duration(1+int(op>>4)) * 100 * time.Millisecond,
			}
			stepBoth(t, i, b, ref, o)
		}
	})
}
