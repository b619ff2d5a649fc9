package trace

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// MachineSeries computes per-machine CPU utilization time series at the
// given sampling step: for each step, the sum of CPU rates of tasks active
// at the step midpoint, clamped to 1 (a machine cannot run above full).
// The returned slice has one series per machine.
func MachineSeries(tr *Trace, step time.Duration) ([]*stats.Series, error) {
	if tr.Machines < 0 {
		return nil, fmt.Errorf("trace: negative machine count %d", tr.Machines)
	}
	b, err := newBinner(tr.Machines, step, tr.Horizon())
	if err != nil {
		return nil, err
	}
	for _, t := range tr.Tasks {
		if t.Machine < 0 || t.Machine >= tr.Machines {
			return nil, fmt.Errorf("trace: task machine %d out of range", t.Machine)
		}
		if t.Start < 0 {
			return nil, fmt.Errorf("trace: task starts at negative offset %v", t.Start)
		}
		b.add(t)
	}
	return b.finish(), nil
}

// binner accumulates tasks into per-machine utilization bins of one step.
// MachineSeries and GenerateMachineSeries both bin through it, so a task
// stream in the same order gives the same bits either way.
type binner struct {
	step   time.Duration
	series []*stats.Series
	end    time.Duration // the latest task end added
}

// newBinner sizes every machine's bins to cover horizon.
func newBinner(machines int, step, horizon time.Duration) (*binner, error) {
	if step <= 0 {
		return nil, fmt.Errorf("trace: replay step must be positive, got %v", step)
	}
	n := binCount(horizon, step)
	b := &binner{step: step, series: make([]*stats.Series, machines)}
	for m := range b.series {
		b.series[m] = stats.NewSeries(step)
		b.series[m].Values = make([]float64, n)
	}
	return b, nil
}

// binCount is the number of steps that cover horizon.
func binCount(horizon, step time.Duration) int {
	n := int(horizon / step)
	if time.Duration(n)*step < horizon {
		n++
	}
	return n
}

// add accumulates t, whose machine must be in range, into the bins it
// overlaps, weighted by overlap fraction so short tasks in long bins
// contribute proportionally.
func (b *binner) add(t Task) {
	b.end = max(b.end, t.End)
	step := b.step
	vals := b.series[t.Machine].Values
	first := int(t.Start / step)
	last := int((t.End - 1) / step)
	if last >= len(vals) {
		last = len(vals) - 1
	}
	for i := first; i <= last; i++ {
		binStart := time.Duration(i) * step
		binEnd := binStart + step
		ovStart, ovEnd := t.Start, t.End
		if binStart > ovStart {
			ovStart = binStart
		}
		if binEnd < ovEnd {
			ovEnd = binEnd
		}
		if ovEnd <= ovStart {
			continue
		}
		frac := float64(ovEnd-ovStart) / float64(step)
		vals[i] += t.CPURate * frac
	}
}

// finish trims every series to the steps that cover the latest task end,
// clamps each bin to 1 and returns the series.
func (b *binner) finish() []*stats.Series {
	n := binCount(b.end, b.step)
	for _, s := range b.series {
		s.Values = s.Values[:n]
		for i, v := range s.Values {
			if v > 1 {
				s.Values[i] = 1
			}
		}
	}
	return b.series
}

// ClusterSeries returns the cluster-mean utilization series at the given
// step.
func ClusterSeries(tr *Trace, step time.Duration) (*stats.Series, error) {
	per, err := MachineSeries(tr, step)
	if err != nil {
		return nil, err
	}
	out := stats.NewSeries(step)
	if len(per) == 0 {
		return out, nil
	}
	n := per[0].Len()
	out.Values = make([]float64, n)
	for _, s := range per {
		for i, v := range s.Values {
			out.Values[i] += v
		}
	}
	for i := range out.Values {
		out.Values[i] /= float64(len(per))
	}
	return out, nil
}
