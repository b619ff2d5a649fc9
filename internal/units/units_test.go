package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestEnergyConversionRoundTrip(t *testing.T) {
	f := func(wh float64) bool {
		if math.IsNaN(wh) || math.IsInf(wh, 0) {
			return true
		}
		got := float64(WattHours(wh).Joules().WattHours())
		return almostEqual(got, wh, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWattHoursToJoules(t *testing.T) {
	if got := WattHours(1).Joules(); got != 3600 {
		t.Fatalf("1 Wh = %v J, want 3600", got)
	}
	if got := Joules(7200).WattHours(); got != 2 {
		t.Fatalf("7200 J = %v Wh, want 2", got)
	}
}

func TestPowerEnergy(t *testing.T) {
	got := Watts(100).Energy(30 * time.Second)
	if got != 3000 {
		t.Fatalf("100W for 30s = %v J, want 3000", got)
	}
}

func TestEnergyOverDuration(t *testing.T) {
	if got := Joules(3000).Over(30 * time.Second); got != 100 {
		t.Fatalf("3000J over 30s = %v, want 100W", got)
	}
	if got := Joules(3000).Over(0); got != 0 {
		t.Fatalf("zero duration should yield 0 W, got %v", got)
	}
	if got := Joules(3000).Over(-time.Second); got != 0 {
		t.Fatalf("negative duration should yield 0 W, got %v", got)
	}
}

func TestEnergyPowerRoundTrip(t *testing.T) {
	f := func(p float64, ms uint16) bool {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return true
		}
		d := time.Duration(int64(ms)+1) * time.Millisecond
		back := float64(Watts(p).Energy(d).Over(d))
		return almostEqual(back, p, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	if Max(3, 7) != 7 || Max(7, 3) != 7 {
		t.Error("Max wrong")
	}
	if Min(3, 7) != 3 || Min(7, 3) != 3 {
		t.Error("Min wrong")
	}
}

func TestPowerString(t *testing.T) {
	cases := []struct {
		p    Watts
		want string
	}{
		{500, "500W"},
		{5210, "5.21kW"},
		{2.5e6, "2.5MW"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("(%v W).String() = %q, want %q", float64(c.p), got, c.want)
		}
	}
}

func TestEnergyStrings(t *testing.T) {
	if s := Joules(1500).String(); !strings.HasSuffix(s, "kJ") {
		t.Errorf("1500 J should render in kJ, got %q", s)
	}
	if s := Joules(2.5e6).String(); !strings.HasSuffix(s, "MJ") {
		t.Errorf("2.5e6 J should render in MJ, got %q", s)
	}
	if s := WattHours(72).String(); s != "72Wh" {
		t.Errorf("72 Wh renders as %q", s)
	}
	if s := WattHours(7200).String(); s != "7.2kWh" {
		t.Errorf("7200 Wh renders as %q", s)
	}
}
