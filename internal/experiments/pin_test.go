package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/virus"
)

var update = flag.Bool("update", false, "rewrite the pinned testdata files with current output")

// checkPinned compares got against testdata/name, or rewrites the file
// under -update. The pins are exact float bits, so like
// TestSeedCSVIdentity they are checked only on amd64, where the
// compiler never fuses multiply-add.
func checkPinned(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s\n--- want\n%s--- got\n%s", path, want, got)
	}
}

func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("pins were generated on amd64; GOARCH=%s may fuse FMAs", runtime.GOARCH)
	}
}

// TestFig16Pinned pins every quick-mode Figure 16 point at full
// precision. The CSVs round to three significant digits; these are the
// float64 bits of each attacked-over-reference throughput ratio.
func TestFig16Pinned(t *testing.T) {
	skipOffAMD64(t)
	p := Params{Quick: true, Workers: 4}
	var got bytes.Buffer
	for _, fig := range []struct {
		name string
		run  func(Params) (*Fig16Result, error)
	}{{"fig16a", Fig16A}, {"fig16b", Fig16B}} {
		r, err := fig.run(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range r.Points {
			fmt.Fprintf(&got, "%s %s %g %#016x\n", fig.name, pt.Scheme, pt.X, math.Float64bits(pt.Throughput))
		}
	}
	checkPinned(t, "fig16_bits.txt", got.Bytes())
}

// TestResultPinned pins every field of sim.Result, floats as their
// bits, for two runs whose schemes cap rack frequency: PSPC and PAD on
// Figure 15's quick Dense/CPU attack.
func TestResultPinned(t *testing.T) {
	skipOffAMD64(t)
	p := Params{Quick: true}
	var got bytes.Buffer
	for _, name := range []string{"PSPC", "PAD"} {
		cfg, scheme, err := fig15DenseCPU(p, name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg, scheme)
		if err != nil {
			t.Fatal(err)
		}
		v := reflect.ValueOf(res).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			fmt.Fprintf(&got, "%s %s ", name, v.Type().Field(i).Name)
			switch f.Kind() {
			case reflect.Float64:
				fmt.Fprintf(&got, "%#016x\n", math.Float64bits(f.Float()))
			case reflect.Int, reflect.Int64:
				fmt.Fprintf(&got, "%d\n", f.Int())
			case reflect.Bool:
				fmt.Fprintf(&got, "%t\n", f.Bool())
			case reflect.String:
				fmt.Fprintf(&got, "%q\n", f.String())
			case reflect.Pointer:
				fmt.Fprintf(&got, "nil=%t\n", f.IsNil())
			default:
				t.Fatalf("sim.Result field %s has unpinned kind %v", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	checkPinned(t, "result_bits.txt", got.Bytes())
}

// fig15DenseCPU is Fig15's run for one scheme under the dense CPU
// attack, configured and deployed the way Fig15 builds it.
func fig15DenseCPU(p Params, name string) (sim.Config, sim.Scheme, error) {
	racks := scaleInt(p, 22, 6)
	const spr = 10
	horizon := fig15Horizon(p)
	cfg := sim.Config{
		Key:                "fig15/" + name + "/Dense/CPU",
		Racks:              racks,
		ServersPerRack:     spr,
		Tick:               scaleDur(p, 100*time.Millisecond, 200*time.Millisecond),
		Duration:           horizon,
		OvershootTolerance: 0.04,
		Background: burstyRampBackground(racks*spr, 0.48, 0.78, horizon, p.seed()+23,
			3*time.Minute, 20*time.Second, 0.15),
		StopOnTrip: true,
	}
	vc := virus.DenseAttack.Configure(virus.CPUIntensive, p.seed())
	vc.PrepDuration = 3 * time.Minute
	vc.MaxPhaseI = 3 * time.Minute
	cfg.Attacks = []sim.AttackSpec{attackSpec(4, vc)}
	scheme, err := schemes.Deploy(&cfg, name, schemes.DefaultMicroFraction)
	return cfg, scheme, err
}
