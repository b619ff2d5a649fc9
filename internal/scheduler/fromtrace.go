package scheduler

import (
	"time"

	"repro/internal/trace"
)

// FromTrace converts a workload trace into scheduler jobs. The trace row
// format carries no job grouping, so each task becomes a single-task job
// (the paper's Google trace groups tasks into jobs; when such grouping is
// available, construct Jobs directly instead).
func FromTrace(tr *trace.Trace) []Job {
	jobs := make([]Job, 0, len(tr.Tasks))
	for i, t := range tr.Tasks {
		jobs = append(jobs, Job{
			ID:      i,
			Arrival: t.Start,
			Tasks:   []TaskReq{{Duration: t.End - t.Start, CPURate: t.CPURate}},
		})
	}
	return jobs
}

// OutageImpairments builds impairments marking every server of a rack
// dark over a window — the service-level footprint of a rack feed trip.
func OutageImpairments(rack, serversPerRack int, from, to time.Duration) []Impairment {
	out := make([]Impairment, 0, serversPerRack)
	for s := 0; s < serversPerRack; s++ {
		out = append(out, Impairment{
			Server: rack*serversPerRack + s,
			From:   from,
			To:     to,
		})
	}
	return out
}
