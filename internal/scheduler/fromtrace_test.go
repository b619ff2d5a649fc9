package scheduler

import (
	"testing"
	"time"

	"repro/internal/trace"
)

func TestFromTrace(t *testing.T) {
	tr := &trace.Trace{Machines: 2, Tasks: []trace.Task{
		{Start: time.Minute, End: 11 * time.Minute, Machine: 0, CPURate: 0.4},
		{Start: 2 * time.Minute, End: 4 * time.Minute, Machine: 1, CPURate: 0.2},
	}}
	jobs := FromTrace(tr)
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	if jobs[0].Arrival != time.Minute || jobs[0].Tasks[0].Duration != 10*time.Minute {
		t.Fatalf("job 0 wrong: %+v", jobs[0])
	}
	if jobs[1].Tasks[0].CPURate != 0.2 {
		t.Fatalf("job 1 wrong: %+v", jobs[1])
	}
	// The converted jobs run end to end.
	_, m, err := Run(Config{Servers: 2, Horizon: time.Hour}, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 2 {
		t.Fatalf("completed = %d", m.Completed)
	}
}

func TestOutageImpairments(t *testing.T) {
	imp := OutageImpairments(2, 10, time.Minute, 3*time.Minute)
	if len(imp) != 10 {
		t.Fatalf("impairments = %d", len(imp))
	}
	if imp[0].Server != 20 || imp[9].Server != 29 {
		t.Fatalf("server range wrong: %d..%d", imp[0].Server, imp[9].Server)
	}
	for _, im := range imp {
		if im.SpeedFactor != 0 {
			t.Fatal("outage should be full-dark")
		}
	}
}

func TestJobLevelImpactOfAnOutage(t *testing.T) {
	// The service-level story behind Figure 16: the same workload run
	// with and without a rack outage window — the outage costs restarts
	// and slowdown.
	tr, err := trace.Generate(trace.SynthConfig{
		Machines: 20, Horizon: 4 * time.Hour, Seed: 9,
		MeanTaskDuration: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := FromTrace(tr)
	cfg := Config{Servers: 20, Horizon: 5 * time.Hour}

	_, clean, err := Run(cfg, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	imp := OutageImpairments(0, 10, time.Hour, 90*time.Minute)
	_, hurt, err := Run(cfg, jobs, imp)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Restarts != 0 {
		t.Fatalf("clean run restarted %d tasks", clean.Restarts)
	}
	if hurt.Restarts == 0 {
		t.Fatal("outage should restart in-flight work")
	}
	if hurt.MeanSlowdown < clean.MeanSlowdown {
		t.Fatalf("outage should not improve slowdown: %v vs %v",
			hurt.MeanSlowdown, clean.MeanSlowdown)
	}
}
