package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/virus"
)

// The determinism regression suite: the same sim.Config must produce the
// same Result every time, and every figure driver must emit byte-identical
// CSV whether its runs execute sequentially or across eight workers.

// detConfig builds a small but non-trivial config: attack, batteries and
// recording all on, so most Result fields carry data.
func detConfig() sim.Config {
	const racks, spr = 2, 5
	horizon := 10 * time.Second
	bg := make([]*stats.Series, racks*spr)
	rng := stats.NewRNG(17)
	for i := range bg {
		r := rng.Split(uint64(i))
		s := stats.NewSeries(time.Second)
		for k := 0; k <= int(horizon/time.Second)+1; k++ {
			s.Append(0.3 + 0.3*r.Float64())
		}
		bg[i] = s
	}
	return sim.Config{
		Key:            "determinism/base",
		Racks:          racks,
		ServersPerRack: spr,
		Tick:           100 * time.Millisecond,
		Duration:       horizon,
		Background:     bg,
		Record:         true,
		Attacks: []sim.AttackSpec{{
			Servers: []int{0, 1},
			Attack: virus.MustNew(virus.Config{
				Profile:         virus.CPUIntensive,
				PrepDuration:    time.Second,
				MaxPhaseI:       2 * time.Second,
				SpikeWidth:      time.Second,
				SpikesPerMinute: 20,
				Seed:            5,
			}),
		}},
	}
}

// TestSameConfigSameResult runs an identical configuration twice and
// demands deeply equal Results, recordings included. The Attack is
// stateful, so each run builds the config (and its attack) afresh — the
// per-run construction discipline the runner contract requires.
func TestSameConfigSameResult(t *testing.T) {
	a, err := sim.Run(detConfig(), schemes.NewPS(schemes.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(detConfig(), schemes.NewPS(schemes.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of the same config produced different Results")
	}
	if a.Key != "determinism/base" {
		t.Fatalf("Result.Key = %q, want the config key echoed", a.Key)
	}
}

// csvOf renders a table to CSV bytes.
func csvOf(t *testing.T, tbl *report.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWorkerCountCSVIdentity is the tentpole acceptance check: a figure
// rendered from a one-worker run must be byte-identical to the same
// figure rendered from an eight-worker run.
func TestWorkerCountCSVIdentity(t *testing.T) {
	figures := []struct {
		name string
		run  func(Params) (*report.Table, error)
	}{
		{"fig8a", func(p Params) (*report.Table, error) {
			r, err := Fig8A(p)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"fig16b", func(p Params) (*report.Table, error) {
			r, err := Fig16B(p)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
		{"fig17", func(p Params) (*report.Table, error) {
			r, err := Fig17(p)
			if err != nil {
				return nil, err
			}
			return r.Table, nil
		}},
	}
	for _, fig := range figures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			t.Parallel()
			seq, err := fig.run(Params{Quick: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := fig.run(Params{Quick: true, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			a, b := csvOf(t, seq), csvOf(t, par)
			if !bytes.Equal(a, b) {
				t.Fatalf("workers=8 CSV differs from workers=1:\n--- workers=1\n%s\n--- workers=8\n%s", a, b)
			}
		})
	}
}

// TestRunTwiceCSVIdentity guards against hidden global state: rendering
// the same figure twice in one process must give the same bytes.
func TestRunTwiceCSVIdentity(t *testing.T) {
	p := Params{Quick: true, Workers: 4}
	first, err := Fig16B(p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Fig16B(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvOf(t, first.Table), csvOf(t, second.Table)) {
		t.Fatal("two renders of Fig16B in one process differ")
	}
}
