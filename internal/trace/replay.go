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
	if step <= 0 {
		return nil, fmt.Errorf("trace: replay step must be positive, got %v", step)
	}
	horizon := tr.Horizon()
	n := int(horizon / step)
	if time.Duration(n)*step < horizon {
		n++
	}
	out := make([]*stats.Series, tr.Machines)
	for m := range out {
		out[m] = stats.NewSeries(step)
		out[m].Values = make([]float64, n)
	}
	// Accumulate each task into the bins it overlaps, weighted by overlap
	// fraction so short tasks in long bins contribute proportionally.
	for _, t := range tr.Tasks {
		if t.Machine < 0 || t.Machine >= tr.Machines {
			return nil, fmt.Errorf("trace: task machine %d out of range", t.Machine)
		}
		first := int(t.Start / step)
		last := int((t.End - 1) / step)
		if last >= n {
			last = n - 1
		}
		vals := out[t.Machine].Values
		for b := first; b <= last; b++ {
			binStart := time.Duration(b) * step
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
			vals[b] += t.CPURate * frac
		}
	}
	for _, s := range out {
		for i, v := range s.Values {
			if v > 1 {
				s.Values[i] = 1
			}
		}
	}
	return out, nil
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
