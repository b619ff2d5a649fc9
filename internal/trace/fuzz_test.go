package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzRead hardens the trace parser: arbitrary input must either parse
// into a valid trace or return an error — never panic, never yield a
// trace that fails its own validation. Parsed traces must survive a
// write/read round trip.
func FuzzRead(f *testing.F) {
	f.Add("# machines: 4\n0,60,0,0.5\n")
	f.Add("0,60,7,0.5\n10,30,2,0.25")
	f.Add("x,60,0,0.5\n")
	f.Add("# comment only\n")
	f.Add("")
	f.Add("0, 60, 0, 0.5\r\n")
	f.Add("0,60,0,0.5,9\n")
	f.Add("-1,60,0,0.5\n")
	f.Add("1e300,1e301,0,0.5\n")
	f.Add(strings.Repeat("0,1,0,0.1\n", 50))
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read returned an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write failed on parsed trace: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back.Tasks) != len(tr.Tasks) {
			t.Fatalf("round trip changed task count: %d -> %d",
				len(tr.Tasks), len(back.Tasks))
		}
	})
}

// FuzzMachineSeries hardens replay against arbitrary (valid) tasks.
func FuzzMachineSeries(f *testing.F) {
	f.Add(uint16(3), uint16(90), uint8(1), uint8(128))
	f.Add(uint16(0), uint16(1), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, startS, durS uint16, machine, rate uint8) {
		tr := &Trace{Machines: int(machine) + 1}
		tr.Tasks = append(tr.Tasks, Task{
			Start:   time.Duration(startS) * time.Second,
			End:     time.Duration(int(startS)+int(durS)+1) * time.Second,
			Machine: int(machine),
			CPURate: float64(rate) / 255,
		})
		per, err := MachineSeries(tr, 10*time.Second)
		if err != nil {
			t.Fatalf("MachineSeries failed on valid trace: %v", err)
		}
		for m, s := range per {
			for i, v := range s.Values {
				if v < 0 || v > 1 {
					t.Fatalf("machine %d bin %d out of range: %v", m, i, v)
				}
			}
		}
	})
}

// FuzzGenerateMachineSeries: for any small config, GenerateMachineSeries
// must return MachineSeries(Generate(cfg)) bit for bit, series lengths
// included, or fail exactly when that does.
func FuzzGenerateMachineSeries(f *testing.F) {
	f.Add(uint8(3), uint16(3*3600+7), uint64(1), uint16(7), false)
	f.Add(uint8(15), uint16(6*3600+30), uint64(3), uint16(60), true)
	f.Add(uint8(0), uint16(90), uint64(9), uint16(1), false)
	f.Add(uint8(7), uint16(1), uint64(2), uint16(300), true)
	f.Add(uint8(1), uint16(600), uint64(4), uint16(0), false)
	f.Add(uint8(11), uint16(65535), uint64(1<<63), uint16(65535), true)
	f.Fuzz(func(t *testing.T, machines uint8, horizonS uint16, seed uint64, stepS uint16, surge bool) {
		cfg := SynthConfig{
			Machines: 1 + int(machines%16),
			Horizon:  time.Duration(horizonS)*time.Second + time.Second,
			Seed:     seed,
		}
		if surge {
			cfg.SurgePeriod = 2 * time.Hour
			cfg.SurgeWidth = 20 * time.Minute
			cfg.SurgeBoost = 0.3
		}
		step := time.Duration(stepS) * time.Second
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(%+v): %v", cfg, err)
		}
		want, wantErr := MachineSeries(tr, step)
		got, err := GenerateMachineSeries(cfg, step)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("step %v: GenerateMachineSeries error %v, MachineSeries error %v", step, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d series, want %d", len(got), len(want))
		}
		for m := range want {
			g, w := got[m], want[m]
			if g.Step != w.Step || len(g.Values) != len(w.Values) {
				t.Fatalf("machine %d: step %v, %d values; want %v, %d", m, g.Step, len(g.Values), w.Step, len(w.Values))
			}
			for i := range w.Values {
				if math.Float64bits(g.Values[i]) != math.Float64bits(w.Values[i]) {
					t.Fatalf("machine %d bin %d: %v, want %v", m, i, g.Values[i], w.Values[i])
				}
			}
		}
	})
}
