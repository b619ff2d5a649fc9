package battery

import (
	"math"
	"testing"
	"time"

	"repro/internal/units"
)

// FuzzKiBaM hardens the kinetic battery model: for any configuration
// NewKiBaM accepts and any charge/discharge/idle sequence, the wells must
// stay within their sub-capacities — SOC and AvailableSOC in [0,1], never
// NaN — and every power exchanged must be finite, non-negative and within
// the request and the rating. Configurations NewKiBaM rejects (including
// NaN/Inf fields, which the accept-range validation is there to catch)
// are skipped.
func FuzzKiBaM(f *testing.F) {
	// The paper's operating points: a rack cabinet, a μDEB-scale bank, a
	// deeply discharged start, a tiny cell, plus hostile floats.
	f.Add(float64(260640), 0.62, 4.5e-4, 1.0, []byte("ddddcciiddcc"))
	f.Add(float64(1200), 0.3, 1e-3, 0.05, []byte{0, 255, 17, 84, 200, 3})
	f.Add(float64(1e9), 0.99, 1e-6, 1.0, []byte("cccccccc"))
	f.Add(float64(1), 0.62, 4.5e-4, 0.5, []byte("id"))
	f.Add(math.NaN(), math.Inf(1), -1.0, 2.0, []byte("d"))
	f.Fuzz(func(t *testing.T, capacity, c, k, soc float64, ops []byte) {
		b, err := NewKiBaM(KiBaMConfig{
			Capacity:   units.Joules(capacity),
			C:          c,
			K:          k,
			InitialSOC: soc,
		})
		if err != nil {
			return
		}
		check := func(step int) {
			s, avail := b.SOC(), b.AvailableSOC()
			if math.IsNaN(s) || s < 0 || s > 1 {
				t.Fatalf("op %d: SOC out of [0,1]: %v", step, s)
			}
			if math.IsNaN(avail) || avail < 0 || avail > 1+1e-9 {
				t.Fatalf("op %d: AvailableSOC out of [0,1]: %v", step, avail)
			}
		}
		check(-1)
		if len(ops) > 256 {
			ops = ops[:256] // bound runtime, not coverage
		}
		for i, op := range ops {
			// Derive the op kind, power (as a multiple of the rating, so
			// both starved and saturated regimes are hit) and step width
			// from one byte each.
			dt := time.Duration(1+int(op>>4)) * 100 * time.Millisecond
			p := units.Watts(float64(op) / 32 * float64(b.MaxDischarge()))
			switch op % 3 {
			case 0:
				got := b.Discharge(p, dt)
				if math.IsNaN(float64(got)) || got < 0 || float64(got) > float64(p)+1e-9 {
					t.Fatalf("op %d: Discharge(%v) returned %v", i, p, got)
				}
				if got > b.MaxDischarge() {
					t.Fatalf("op %d: discharge %v exceeds rating %v", i, got, b.MaxDischarge())
				}
			case 1:
				got := b.Charge(p, dt)
				if math.IsNaN(float64(got)) || got < 0 || float64(got) > float64(p)+1e-9 {
					t.Fatalf("op %d: Charge(%v) returned %v", i, p, got)
				}
			case 2:
				b.Idle(dt)
			}
			check(i)
			if d := b.Deliverable(dt); math.IsNaN(float64(d)) || d < 0 {
				t.Fatalf("op %d: Deliverable = %v", i, d)
			}
		}
	})
}
