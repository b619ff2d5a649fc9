package stats

import (
	"math"
	"time"
)

// Sampler interpolates a fixed set of series at one shared offset per
// call, returning for each series exactly the float64 Series.Interp
// would. It is how the simulator reads a per-server background every
// tick without redoing per-series work that only changes once per
// sample step:
//
//   - series sharing a (step, length) pair form a group, and each group
//     takes its clamp decision, floor index and blend fraction once per
//     call;
//   - each series' two neighbouring samples are copied into flat
//     endpoint arrays only when its group enters a new segment (once
//     every step/tick calls at a fixed tick);
//   - every call then evaluates one v0*(1-frac) + v1*frac per series,
//     Interp's own expression on the same operands, so the results are
//     bit-identical.
//
// A Sampler reads its series' values when a group enters a segment, so
// the series must not change while it is in use. It is not safe for
// concurrent use; the series themselves may be shared read-only.
type Sampler struct {
	series []*Series
	groups []samplerGroup
}

// samplerGroup is the series sharing one step and one length: at any
// offset they take the same clamp decision and, between the ends, the
// same floor index and blend fraction.
type samplerGroup struct {
	step time.Duration
	n    int // samples per series
	// runs are the group's series as maximal ascending runs of
	// consecutive indices, so the per-call loops write whole output
	// ranges; a background whose series all share one shape is one run.
	runs []indexRun

	// seg identifies the segment v0/v1 hold: -1 for the start clamp
	// (Values[0]), n-1 for the end clamp (Values[n-1]), otherwise the
	// floor index lo of the interior segment [lo, lo+1]; segUnloaded
	// before the first load.
	seg    int
	v0, v1 []float64 // per member, in run order: the segment's endpoints
}

// segUnloaded is a seg no offset maps to, so the first Sample loads.
const segUnloaded = -2

// indexRun is the series indices [lo, hi).
type indexRun struct{ lo, hi int }

// NewSampler groups series by (step, length) for sampling. The slice
// order is the order Sample writes its output in.
func NewSampler(series []*Series) *Sampler {
	s := &Sampler{series: series}
	for i, ser := range series {
		g := s.group(ser.Step, len(ser.Values))
		if r := len(g.runs) - 1; r >= 0 && g.runs[r].hi == i {
			g.runs[r].hi++
		} else {
			g.runs = append(g.runs, indexRun{i, i + 1})
		}
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		n := 0
		for _, r := range g.runs {
			n += r.hi - r.lo
		}
		g.v0, g.v1 = make([]float64, n), make([]float64, n)
	}
	return s
}

// group returns the group for (step, n), adding it if it is new.
func (s *Sampler) group(step time.Duration, n int) *samplerGroup {
	for gi := range s.groups {
		if g := &s.groups[gi]; g.step == step && g.n == n {
			return g
		}
	}
	s.groups = append(s.groups, samplerGroup{step: step, n: n, seg: segUnloaded})
	return &s.groups[len(s.groups)-1]
}

// Sample writes series i's value at offset t to out[i] for every series
// the sampler holds; out must be at least that long. Each value is
// bit-identical to series[i].Interp(t).
func (s *Sampler) Sample(t time.Duration, out []float64) {
	for gi := range s.groups {
		g := &s.groups[gi]
		// Interp's decision sequence, taken once for the whole group.
		seg, frac := -1, 0.0
		if g.n > 0 {
			switch pos := float64(t) / float64(g.step); {
			case pos <= 0:
			case pos >= float64(g.n-1):
				seg = g.n - 1
			default:
				lo := int(math.Floor(pos))
				seg, frac = lo, pos-float64(lo)
			}
		}
		if seg != g.seg {
			s.load(g, seg)
		}
		clamped := seg < 0 || seg == g.n-1
		w := 1 - frac
		off := 0
		for _, r := range g.runs {
			o := out[r.lo:r.hi]
			v0, v1 := g.v0[off:][:len(o)], g.v1[off:][:len(o)]
			off += len(o)
			if clamped {
				copy(o, v0)
				continue
			}
			for k, a := range v0 {
				o[k] = a*w + v1[k]*frac
			}
		}
	}
}

// load copies each member's endpoint samples for segment seg: the
// clamped sample alone for either end (0 for empty series), both
// neighbours for an interior segment.
func (s *Sampler) load(g *samplerGroup, seg int) {
	g.seg = seg
	k := 0
	for _, r := range g.runs {
		for _, ser := range s.series[r.lo:r.hi] {
			vals := ser.Values
			switch {
			case g.n == 0:
				g.v0[k] = 0
			case seg < 0:
				g.v0[k] = vals[0]
			case seg == g.n-1:
				g.v0[k] = vals[g.n-1]
			default:
				g.v0[k], g.v1[k] = vals[seg], vals[seg+1]
			}
			k++
		}
	}
}
