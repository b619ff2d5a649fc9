package powersim

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestOversubscriptionPlanBudgets(t *testing.T) {
	plan := OversubscriptionPlan{RackNameplate: 5210, Racks: 22, Ratio: 0.65}
	wantPDU := units.Watts(0.65 * 22 * 5210)
	if got := plan.PDUBudget(); math.Abs(float64(got-wantPDU)) > 1e-9 {
		t.Fatalf("PDUBudget = %v, want %v", got, wantPDU)
	}
	wantRack := units.Watts(0.65 * 5210)
	if got := plan.RackBudget(3); math.Abs(float64(got-wantRack)) > 1e-9 {
		t.Fatalf("RackBudget = %v, want %v", got, wantRack)
	}
}
