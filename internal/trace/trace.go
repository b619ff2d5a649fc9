// Package trace handles cluster workload traces in the format of the 2010
// Google compute-cluster trace the paper evaluates with: one row per task,
// carrying start time, end time, machine ID and CPU rate. The package
// provides a parser/writer for that row format, a deterministic synthetic
// generator with the statistical features the experiments need (diurnal
// and weekly utilization patterns, Poisson job arrivals, heavy-tailed task
// durations), and replay helpers that turn a trace into per-machine
// utilization time series.
package trace

import (
	"fmt"
	"time"
)

// Task is one row of the trace: a task running on one machine over
// [Start, End) consuming CPURate of that machine's CPU.
type Task struct {
	// Start is the task's start offset from the trace origin.
	Start time.Duration
	// End is the task's end offset; End > Start.
	End time.Duration
	// Machine is the hosting machine ID, in [0, Machines).
	Machine int
	// CPURate is the task's CPU demand as a fraction of one machine.
	CPURate float64
}

// Validate reports a malformed task.
func (t Task) Validate() error {
	if t.End <= t.Start {
		return fmt.Errorf("trace: task ends (%v) at or before start (%v)", t.End, t.Start)
	}
	if t.Start < 0 {
		return fmt.Errorf("trace: negative start %v", t.Start)
	}
	if t.Machine < 0 {
		return fmt.Errorf("trace: negative machine ID %d", t.Machine)
	}
	if t.CPURate < 0 || t.CPURate > 1 {
		return fmt.Errorf("trace: CPU rate %v out of [0,1]", t.CPURate)
	}
	return nil
}

// Trace is a workload trace: a set of tasks over a machine population.
type Trace struct {
	// Machines is the number of machines in the cluster.
	Machines int
	// Tasks are the trace rows, in no particular order.
	Tasks []Task
}

// Validate checks every task and the machine population.
func (tr *Trace) Validate() error {
	if tr.Machines <= 0 {
		return fmt.Errorf("trace: needs at least one machine, got %d", tr.Machines)
	}
	for i, t := range tr.Tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("trace: task %d: %w", i, err)
		}
		if t.Machine >= tr.Machines {
			return fmt.Errorf("trace: task %d on machine %d but population is %d",
				i, t.Machine, tr.Machines)
		}
	}
	return nil
}

// Horizon returns the latest task end offset.
func (tr *Trace) Horizon() time.Duration {
	var h time.Duration
	for _, t := range tr.Tasks {
		if t.End > h {
			h = t.End
		}
	}
	return h
}
