package experiments

import (
	"slices"
	"testing"

	"repro/internal/report"
)

// requireKnobMoves fails when every published row of an ablation is the
// same once its leading knob columns are dropped: an ablation whose
// numbers never change across its knob's range measures nothing. The
// rows are the cells the CSV writes, so this judges the published
// output, not full-precision internals.
func requireKnobMoves(t *testing.T, tbl *report.Table, knobs int) {
	t.Helper()
	if len(tbl.Rows) < 2 {
		t.Fatalf("%s: %d rows, want at least two knob settings", tbl.Title, len(tbl.Rows))
	}
	first := tbl.Rows[0][knobs:]
	for _, row := range tbl.Rows[1:] {
		if !slices.Equal(row[knobs:], first) {
			return
		}
	}
	t.Errorf("%s: every row reads %v across %v; the knob moves no output",
		tbl.Title, first, tbl.Headers[:knobs])
}

func TestAblationPIdealTradeoff(t *testing.T) {
	r, err := AblationPIdeal(quick)
	if err != nil {
		t.Fatal(err)
	}
	requireKnobMoves(t, r.Table, 1)
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// The bound's purpose: a tight PIdeal caps the per-battery discharge
	// rate (aging protection); loosening it raises the observed peak rate.
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.Extra < first.Extra {
		t.Fatalf("loose PIdeal peak discharge (%v W) should be >= tight (%v W)",
			last.Extra, first.Extra)
	}
	// The tight bound must actually bind: peak rate stays at or under
	// 0.1x nameplate (+tolerance for the final partial tick).
	if first.Extra > 521*10*0.1*1.01 {
		t.Fatalf("tight bound did not bind: peak %v W", first.Extra)
	}
}

func TestAblationDetectors(t *testing.T) {
	r, err := AblationDetectors(quick)
	if err != nil {
		t.Fatal(err)
	}
	requireKnobMoves(t, r.Table, 1)
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, pt := range r.Points {
		if pt.X < 0 || pt.X > 1 || pt.Extra < 0 || pt.Extra > 1 {
			t.Fatalf("rates out of range: %+v", pt)
		}
	}
	// Both families catch the loud full-height trains outright.
	for _, pt := range r.Points[:2] {
		if pt.X < 0.9 || pt.Extra < 0.9 {
			t.Fatalf("loud train under-detected: %+v", pt)
		}
	}
	// The stealth train still registers on both, with the per-spike
	// attribution penalty of CUSUM's accumulation delay visible.
	split := r.Points[2]
	if split.X == 0 || split.Extra == 0 {
		t.Fatalf("stealth train missed entirely: %+v", split)
	}
}

func TestAblationPlacementCost(t *testing.T) {
	r, err := AblationPlacement(quick)
	if err != nil {
		t.Fatal(err)
	}
	requireKnobMoves(t, r.Table, 2)
	// Higher occupancy never makes the hunt cheaper for a given policy.
	byPolicy := map[string]map[float64]float64{}
	for _, pt := range r.Points {
		if byPolicy[pt.Label] == nil {
			byPolicy[pt.Label] = map[float64]float64{}
		}
		byPolicy[pt.Label][pt.X] = pt.Extra
	}
	for policy, m := range byPolicy {
		if m[0.4] <= 0 {
			t.Errorf("%s: no probes recorded", policy)
		}
	}
}

func TestAblationTopology(t *testing.T) {
	r, err := AblationTopology(quick)
	if err != nil {
		t.Fatal(err)
	}
	requireKnobMoves(t, r.Table, 1)
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Central UPS pays the most conversion loss; per-node DEB the least.
	if r.Points[0].Extra <= r.Points[3].Extra {
		t.Fatalf("central UPS loss (%v) should exceed per-node DEB (%v)",
			r.Points[0].Extra, r.Points[3].Extra)
	}
}

func TestAblationJitter(t *testing.T) {
	r, err := AblationJitter(quick)
	if err != nil {
		t.Fatal(err)
	}
	requireKnobMoves(t, r.Table, 1)
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	regular := r.Points[0].Extra
	heavy := r.Points[2].Extra
	if regular == 0 {
		t.Fatal("the regular schedule should trip the periodicity detector")
	}
	if heavy >= regular {
		t.Fatalf("heavy jitter (%v flags) should evade the regular schedule's %v",
			heavy, regular)
	}
}

func TestAblationEconomics(t *testing.T) {
	r, err := AblationEconomics(quick)
	if err != nil {
		t.Fatal(err)
	}
	requireKnobMoves(t, r.Table, 1)
	// μDEB hardware is priced per watt-hour, so a bigger bank costs more.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Extra <= r.Points[i-1].Extra {
			t.Fatalf("%s costs %v, no more than %s at %v", r.Points[i].Label,
				r.Points[i].Extra, r.Points[i-1].Label, r.Points[i-1].Extra)
		}
	}
}
