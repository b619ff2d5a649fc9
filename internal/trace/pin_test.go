package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/generate_pins.txt with current output")

// TestGeneratePinned pins the generator and the replay at full
// precision: a SHA-256 over every task's Start, End, Machine and
// CPURate bits, in trace order, and over the bits of every value
// MachineSeries accumulates from them. MachineSeries sums tasks in
// trace order, so the digest also pins that order. The configs are the
// ones the reproduction replays (Figure 5's fortnight, Figure 14's
// surging day) plus a horizon that ends mid-slot, where tasks drawn to
// start past the horizon are dropped.
//
// Like TestSeedCSVIdentity, it runs only on amd64, where the compiler
// never fuses multiply-add. Regenerate with -update.
func TestGeneratePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pins were generated on amd64; GOARCH=%s may fuse FMAs", runtime.GOARCH)
	}
	cases := []struct {
		name string
		cfg  SynthConfig
		step time.Duration
	}{
		{"fig5", SynthConfig{Machines: 220, Horizon: 14 * 24 * time.Hour, Seed: 1}, 5 * time.Minute},
		{"fig14-surge", SynthConfig{
			Machines: 220, Horizon: 24 * time.Hour, Seed: 12,
			SurgePeriod: 6 * time.Hour, SurgeWidth: 45 * time.Minute, SurgeBoost: 0.35,
		}, 5 * time.Minute},
		{"mid-slot-horizon", SynthConfig{Machines: 40, Horizon: 6*time.Hour + 30*time.Second, Seed: 3}, time.Minute},
	}
	var got bytes.Buffer
	for _, tc := range cases {
		tr, err := Generate(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, task := range tr.Tasks {
			if i > 0 && task.Start < tr.Tasks[i-1].Start {
				t.Fatalf("%s: task %d starts at %v, before task %d's %v", tc.name, i, task.Start, i-1, tr.Tasks[i-1].Start)
			}
			if task.End > tc.cfg.Horizon {
				t.Fatalf("%s: task %d ends at %v, past the %v horizon", tc.name, i, task.End, tc.cfg.Horizon)
			}
		}
		series, err := MachineSeries(tr, tc.step)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [32]byte
		for _, task := range tr.Tasks {
			binary.LittleEndian.PutUint64(buf[0:], uint64(task.Start))
			binary.LittleEndian.PutUint64(buf[8:], uint64(task.End))
			binary.LittleEndian.PutUint64(buf[16:], uint64(task.Machine))
			binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(task.CPURate))
			h.Write(buf[:])
		}
		for _, s := range series {
			for _, v := range s.Values {
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
				h.Write(buf[:8])
			}
		}
		fmt.Fprintf(&got, "%s tasks=%d sha256=%x\n", tc.name, len(tr.Tasks), h.Sum(nil))
	}

	path := filepath.Join("testdata", "generate_pins.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("generated traces differ from %s\n--- want\n%s--- got\n%s", path, want, got.Bytes())
	}
}
