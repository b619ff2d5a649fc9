package trace

import (
	"math"
	"testing"
	"time"
)

func TestMachineSeriesBasic(t *testing.T) {
	tr := &Trace{Machines: 2, Tasks: []Task{
		{Start: 0, End: 10 * time.Second, Machine: 0, CPURate: 0.3},
		{Start: 5 * time.Second, End: 15 * time.Second, Machine: 0, CPURate: 0.4},
		{Start: 0, End: 20 * time.Second, Machine: 1, CPURate: 0.6},
	}}
	per, err := MachineSeries(tr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 {
		t.Fatalf("series count = %d", len(per))
	}
	// Machine 0: bins [0,5)=0.3, [5,10)=0.7, [10,15)=0.4, [15,20)=0.
	want0 := []float64{0.3, 0.7, 0.4, 0}
	for i, w := range want0 {
		if got := per[0].Values[i]; math.Abs(got-w) > 1e-12 {
			t.Errorf("machine 0 bin %d = %v, want %v", i, got, w)
		}
	}
	// Machine 1 is flat 0.6 through all four bins.
	for i := 0; i < 4; i++ {
		if got := per[1].Values[i]; math.Abs(got-0.6) > 1e-12 {
			t.Errorf("machine 1 bin %d = %v", i, got)
		}
	}
}

func TestMachineSeriesPartialOverlap(t *testing.T) {
	tr := &Trace{Machines: 1, Tasks: []Task{
		// 2 s of a 10 s bin at rate 1.0 → bin average 0.2.
		{Start: 4 * time.Second, End: 6 * time.Second, Machine: 0, CPURate: 1.0},
	}}
	per, err := MachineSeries(tr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := per[0].Values[0]; math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("partial overlap bin = %v, want 0.2", got)
	}
}

func TestMachineSeriesClampsAtFull(t *testing.T) {
	tr := &Trace{Machines: 1, Tasks: []Task{
		{Start: 0, End: 10 * time.Second, Machine: 0, CPURate: 0.8},
		{Start: 0, End: 10 * time.Second, Machine: 0, CPURate: 0.8},
	}}
	per, err := MachineSeries(tr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := per[0].Values[0]; got != 1 {
		t.Fatalf("oversubscribed machine = %v, want clamped 1", got)
	}
}

func TestMachineSeriesRejectsBadStep(t *testing.T) {
	if _, err := MachineSeries(&Trace{Machines: 1}, 0); err == nil {
		t.Fatal("zero step should fail")
	}
}

func TestClusterSeries(t *testing.T) {
	tr := &Trace{Machines: 2, Tasks: []Task{
		{Start: 0, End: 10 * time.Second, Machine: 0, CPURate: 0.4},
		{Start: 0, End: 10 * time.Second, Machine: 1, CPURate: 0.8},
	}}
	cl, err := ClusterSeries(tr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Values[0]; math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("cluster mean = %v, want 0.6", got)
	}
}

// TestMachineSeriesOutOfRangeMachine: a task on a machine outside the
// population, a negative population and a task that starts before the
// trace are errors, not panics.
func TestMachineSeriesOutOfRangeMachine(t *testing.T) {
	for _, tr := range []*Trace{
		{Machines: 1, Tasks: []Task{{Start: 0, End: time.Second, Machine: 3, CPURate: 0.5}}},
		{Machines: -1},
		{Machines: 1, Tasks: []Task{{Start: -time.Minute, End: time.Minute, CPURate: 0.5}}},
	} {
		if _, err := MachineSeries(tr, time.Second); err == nil {
			t.Errorf("%+v: MachineSeries succeeded", tr)
		}
	}
}
