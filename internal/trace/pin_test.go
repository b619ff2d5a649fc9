package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/generate_pins.txt with current output")

// TestGeneratePinned pins the generator and the replay at full
// precision: a SHA-256 over every task's Start, End, Machine and
// CPURate bits, in trace order, and over the bits of every value
// MachineSeries accumulates from them. MachineSeries sums tasks in
// trace order, so the digest also pins that order. The configs are the
// ones the reproduction replays (Figure 5's fortnight, Figure 14's
// surging day) plus a horizon that ends mid-slot, where tasks drawn to
// start past the horizon are dropped, and a step that does not divide
// the horizon, so the last bin is partial. GenerateMachineSeries must
// give each case's series bit for bit: the same digest over the tasks
// and its series.
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
		{"step-not-dividing", SynthConfig{Machines: 30, Horizon: 3*time.Hour + 7*time.Second, Seed: 5}, 7 * time.Second},
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
		streamed, err := GenerateMachineSeries(tc.cfg, tc.step)
		if err != nil {
			t.Fatal(err)
		}
		h, hs := sha256.New(), sha256.New()
		both := io.MultiWriter(h, hs)
		var buf [32]byte
		for _, task := range tr.Tasks {
			binary.LittleEndian.PutUint64(buf[0:], uint64(task.Start))
			binary.LittleEndian.PutUint64(buf[8:], uint64(task.End))
			binary.LittleEndian.PutUint64(buf[16:], uint64(task.Machine))
			binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(task.CPURate))
			both.Write(buf[:])
		}
		hashSeries(h, series)
		hashSeries(hs, streamed)
		if !bytes.Equal(hs.Sum(nil), h.Sum(nil)) {
			t.Errorf("%s: GenerateMachineSeries differs from MachineSeries(Generate)", tc.name)
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

// hashSeries writes the bits of every value of every series to h.
func hashSeries(h io.Writer, series []*stats.Series) {
	var buf [8]byte
	for _, s := range series {
		for _, v := range s.Values {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
}
