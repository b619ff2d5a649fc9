package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTaskValidate(t *testing.T) {
	good := Task{Start: 0, End: time.Minute, Machine: 3, CPURate: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("good task failed: %v", err)
	}
	bad := []Task{
		{Start: time.Minute, End: time.Minute, Machine: 0, CPURate: 0.5},
		{Start: 2 * time.Minute, End: time.Minute, Machine: 0, CPURate: 0.5},
		{Start: -time.Second, End: time.Minute, Machine: 0, CPURate: 0.5},
		{Start: 0, End: time.Minute, Machine: -1, CPURate: 0.5},
		{Start: 0, End: time.Minute, Machine: 0, CPURate: 1.5},
		{Start: 0, End: time.Minute, Machine: 0, CPURate: -0.1},
	}
	for i, task := range bad {
		if err := task.Validate(); err == nil {
			t.Errorf("bad task %d validated", i)
		}
	}
}

func TestTraceValidate(t *testing.T) {
	tr := &Trace{Machines: 2, Tasks: []Task{
		{Start: 0, End: time.Minute, Machine: 0, CPURate: 0.5},
		{Start: 0, End: time.Minute, Machine: 5, CPURate: 0.5},
	}}
	if err := tr.Validate(); err == nil {
		t.Error("task on machine 5 of 2 should fail")
	}
	if err := (&Trace{Machines: 0}).Validate(); err == nil {
		t.Error("zero machines should fail")
	}
}

func TestHorizon(t *testing.T) {
	tr := &Trace{Machines: 1, Tasks: []Task{
		{Start: 10 * time.Second, End: 30 * time.Second, CPURate: 0.1},
		{Start: 0, End: 50 * time.Second, CPURate: 0.1},
	}}
	if got := tr.Horizon(); got != 50*time.Second {
		t.Fatalf("Horizon = %v", got)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	orig := &Trace{Machines: 5, Tasks: []Task{
		{Start: 0, End: 300 * time.Second, Machine: 0, CPURate: 0.25},
		{Start: 1500 * time.Millisecond, End: 10 * time.Second, Machine: 4, CPURate: 0.8},
	}}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Machines != 5 {
		t.Fatalf("machines = %d, want 5 (from header)", back.Machines)
	}
	if len(back.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(back.Tasks))
	}
	if back.Tasks[1].Machine != 4 || back.Tasks[1].CPURate != 0.8 {
		t.Fatalf("task round trip wrong: %+v", back.Tasks[1])
	}
	if back.Tasks[1].Start != 1500*time.Millisecond {
		t.Fatalf("start round trip wrong: %v", back.Tasks[1].Start)
	}
}

func TestReadInfersMachines(t *testing.T) {
	in := "0,60,7,0.5\n10,30,2,0.25\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Machines != 8 {
		t.Fatalf("machines = %d, want 8 inferred", tr.Machines)
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n0,60,0,0.5\n# trailing comment\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 1 {
		t.Fatalf("tasks = %d", len(tr.Tasks))
	}
}

func TestReadHandlesSpacesAndCRLF(t *testing.T) {
	in := "0, 60, 0, 0.5\r\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tasks[0].CPURate != 0.5 {
		t.Fatalf("parsed %+v", tr.Tasks[0])
	}
}

func TestReadRejectsMalformedRows(t *testing.T) {
	bad := []string{
		"0,60,0\n",       // missing field
		"x,60,0,0.5\n",   // bad start
		"0,y,0,0.5\n",    // bad end
		"0,60,z,0.5\n",   // bad machine
		"0,60,0,w\n",     // bad rate
		"0,60,0,0.5,9\n", // extra field
		"60,0,0,0.5\n",   // end before start
		"0,60,0,1.5\n",   // rate out of range
	}
	for _, in := range bad {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestReadNoFinalNewline(t *testing.T) {
	tr, err := Read(strings.NewReader("0,60,0,0.5"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 1 {
		t.Fatalf("tasks = %d", len(tr.Tasks))
	}
}

func TestReadEmptyInput(t *testing.T) {
	tr, err := Read(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 0 || tr.Machines != 1 {
		t.Fatalf("empty trace: %+v", tr)
	}
}
