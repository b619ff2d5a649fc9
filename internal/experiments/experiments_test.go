package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// Every test runs in Quick mode and asserts the qualitative shape the
// paper reports; absolute numbers are covered by EXPERIMENTS.md.

var quick = Params{Quick: true}

func TestFig1CDFShape(t *testing.T) {
	r, err := Fig1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.USD) == 0 {
		t.Fatal("no CDF points")
	}
	// Monotone non-decreasing and ending near 1.
	for i := 1; i < len(r.CumulativeP); i++ {
		if r.CumulativeP[i] < r.CumulativeP[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if last := r.CumulativeP[len(r.CumulativeP)-1]; last < 0.85 {
		t.Fatalf("CDF should approach 1 by $100, got %v", last)
	}
	// Figure 1's anchor: a substantial share of outages exceed $10/sqm/min.
	var p10 float64
	for i, usd := range r.USD {
		if usd == 10 {
			p10 = r.CumulativeP[i]
		}
	}
	if 1-p10 < 0.3 {
		t.Fatalf("share above $10 = %v, want >= 0.3", 1-p10)
	}
}

func TestFig5OfflineChargingWorsensSpread(t *testing.T) {
	r, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	on, off := r.Online.Mean(), r.Offline.Mean()
	if on <= 0 {
		t.Fatal("online spread should be positive (uneven usage exists)")
	}
	if off <= on {
		t.Fatalf("offline charging should worsen SOC spread: online %v vs offline %v", on, off)
	}
	// Spreads are plausible percentages (the paper reports 3-12% online).
	if on > 40 || off > 60 {
		t.Fatalf("spreads implausibly large: %v / %v", on, off)
	}
}

// TestFig5SpreadMatchesRecording: Figure 5 steps its runs by hand and
// takes the SOC spread after every tick, which must equal, bit for bit,
// what socSpreadSeries reads off a recording of the same run.
func TestFig5SpreadMatchesRecording(t *testing.T) {
	bg, err := fig5Background(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, offline := range []bool{false, true} {
		got, err := fig5Spread(fig5Run(quick, bg, offline))
		if err != nil {
			t.Fatal(err)
		}
		cfg, scheme := fig5Run(quick, bg, offline)
		cfg.Record = true
		res, err := sim.Run(cfg, scheme)
		if err != nil {
			t.Fatal(err)
		}
		want := socSpreadSeries(res.Recording)
		if got.Step != want.Step || got.Len() != want.Len() || got.Len() == 0 {
			t.Fatalf("offline=%v: streamed %d samples at %v, recorded %d at %v",
				offline, got.Len(), got.Step, want.Len(), want.Step)
		}
		for i, w := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(w) {
				t.Fatalf("offline=%v: sample %d streamed %v, recorded %v", offline, i, got.Values[i], w)
			}
		}
	}
}

func TestFig6TwoPhaseShape(t *testing.T) {
	r, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.PhaseIIStart == 0 {
		t.Fatal("attack never reached Phase II")
	}
	if r.LearnedDrain == 0 {
		t.Fatal("attacker learned nothing about the battery")
	}
	// The battery drains substantially during Phase I.
	socAtPhaseII := r.SOC.At(r.PhaseIIStart)
	if socAtPhaseII > 80 {
		t.Fatalf("battery barely drained by Phase II: %v%%", socAtPhaseII)
	}
	// Malicious load shows sustained high level in Phase I...
	midPhaseI := r.MaliciousLoad.At(r.PhaseIIStart / 2)
	if midPhaseI < 80 {
		t.Fatalf("Phase I malicious load = %v%%, want sustained high", midPhaseI)
	}
	// ...and the Phase II trace contains both spikes and low rest periods.
	var hi, lo int
	for _, v := range r.MaliciousLoad.Values[int(r.PhaseIIStart/r.Step):] {
		if v > 90 {
			hi++
		}
		if v < 50 {
			lo++
		}
	}
	if hi == 0 || lo == 0 {
		t.Fatalf("Phase II lacks spike structure: hi=%d lo=%d", hi, lo)
	}
}

func TestFig7EffectiveAttacks(t *testing.T) {
	r, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.EffectiveAttacks == 0 {
		t.Fatal("no effective attacks against a drained rack")
	}
	// Not every spike succeeds: the draw trace must also dip below the
	// limit (failed attempts / rest periods).
	below := 0
	for _, v := range r.Draw.Values {
		if v < float64(r.Limit) {
			below++
		}
	}
	if below == 0 {
		t.Fatal("draw never below limit: attack should not be trivially effective")
	}
}

func TestFig8AMoreNodesMoreAttacks(t *testing.T) {
	r, err := Fig8A(quick)
	if err != nil {
		t.Fatal(err)
	}
	sum := map[string]map[float64]int{} // profile -> nodes -> total over tolerances
	tolSum := map[float64]int{}         // tolerance -> total
	for _, pt := range r.Points {
		if sum[pt.Profile] == nil {
			sum[pt.Profile] = map[float64]int{}
		}
		sum[pt.Profile][pt.X] += pt.EffectiveAttacks
		tolSum[pt.Tolerance] += pt.EffectiveAttacks
	}
	// Four nodes beat one node for every profile.
	for prof, byNodes := range sum {
		if byNodes[4] <= byNodes[1] {
			t.Errorf("%s: 4 nodes (%d) should beat 1 node (%d)",
				prof, byNodes[4], byNodes[1])
		}
	}
	// Tighter tolerance admits more effective attacks.
	if tolSum[0.04] <= tolSum[0.16] {
		t.Errorf("4%% overshoot (%d) should see more attacks than 16%% (%d)",
			tolSum[0.04], tolSum[0.16])
	}
	// CPU viruses out-attack IO viruses.
	cpuTotal, ioTotal := 0, 0
	for _, n := range sum["CPU"] {
		cpuTotal += n
	}
	for _, n := range sum["IO"] {
		ioTotal += n
	}
	if cpuTotal <= ioTotal {
		t.Errorf("CPU total (%d) should exceed IO total (%d)", cpuTotal, ioTotal)
	}
}

func TestFig8BWiderSpikesMoreAttacks(t *testing.T) {
	r, err := Fig8B(quick)
	if err != nil {
		t.Fatal(err)
	}
	byWidth := map[float64]int{}
	for _, pt := range r.Points {
		byWidth[pt.X] += pt.EffectiveAttacks
	}
	if byWidth[4] <= byWidth[1] {
		t.Fatalf("4s spikes (%d) should beat 1s spikes (%d)", byWidth[4], byWidth[1])
	}
}

func TestFig8CFrequencyAndBudget(t *testing.T) {
	r, err := Fig8C(quick)
	if err != nil {
		t.Fatal(err)
	}
	byFreq := map[float64]int{}
	byRatio := map[float64]int{}
	for _, pt := range r.Points {
		byFreq[pt.X] += pt.EffectiveAttacks
		byRatio[pt.Tolerance] += pt.EffectiveAttacks
	}
	if byFreq[6] <= byFreq[1] {
		t.Fatalf("6/min (%d) should beat 1/min (%d)", byFreq[6], byFreq[1])
	}
	// A tighter budget admits more effective attacks than a generous one.
	if byRatio[0.70] <= byRatio[0.85] {
		t.Fatalf("70%% budget (%d) should see more attacks than 85%% (%d)",
			byRatio[0.70], byRatio[0.85])
	}
}

func TestTable1DetectionShape(t *testing.T) {
	r, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate by (width, perMin) for the single-server full-height rows.
	agg := func(width time.Duration, perMin float64) float64 {
		sum, n := 0.0, 0
		for _, c := range r.Cells {
			if c.Servers == 1 && c.Width == width && c.PerMinute == perMin {
				sum += c.DetectionRate
				n++
			}
		}
		return sum / float64(n)
	}
	narrowSparse := agg(time.Second, 1)
	wideDense := agg(4*time.Second, 6)
	if wideDense <= narrowSparse {
		t.Fatalf("wide+dense (%v) should be more detectable than narrow+sparse (%v)",
			wideDense, narrowSparse)
	}
	// Amplitude splitting hides the four-server attack from the meters
	// relative to full height at the same width/frequency.
	var fullSum, splitSum float64
	for _, c := range r.Cells {
		if c.Servers == 4 && c.Scale == 1 {
			fullSum += c.DetectionRate
		}
		if c.Servers == 4 && c.Scale != 1 {
			splitSum += c.DetectionRate
		}
	}
	if splitSum >= fullSum {
		t.Fatalf("split amplitude (%v) should evade better than full (%v)",
			splitSum, fullSum)
	}
}

func TestFig12TraceShapes(t *testing.T) {
	r, err := Fig12(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dense.Mean() <= r.Sparse.Mean() {
		t.Fatal("dense attack should carry more average load than sparse")
	}
	if r.Dense.Max() < 0.9 || r.Sparse.Max() < 0.9 {
		t.Fatal("both traces should reach high spikes")
	}
}

func TestFig13PADBalancesTheMap(t *testing.T) {
	r, err := Fig13(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.PADSpread >= r.ConvSpread {
		t.Fatalf("PAD spread (%v) should be below conventional (%v)",
			r.PADSpread, r.ConvSpread)
	}
	if r.PADMinSOC <= r.ConvMinSOC {
		t.Fatalf("PAD worst rack (%v) should beat conventional (%v)",
			r.PADMinSOC, r.ConvMinSOC)
	}
}

func TestFig14SheddingBounded(t *testing.T) {
	r, err := Fig14(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxShedRatio == 0 {
		t.Fatal("PAD never shed under periodic surges")
	}
	if r.MaxShedRatio > 0.031 {
		t.Fatalf("shed ratio %v exceeds the 3%% bound", r.MaxShedRatio)
	}
}

func TestFig15SurvivalOrdering(t *testing.T) {
	r, err := Fig15(quick)
	if err != nil {
		t.Fatal(err)
	}
	avg := r.AvgSurvival
	// The paper's ordering: Conv weakest; PS and uDEB close with uDEB
	// ahead; vDEB ahead of both; PAD the strongest.
	if !(avg["Conv"] < avg["PS"]) {
		t.Errorf("PS (%v) should outlive Conv (%v)", avg["PS"], avg["Conv"])
	}
	if !(avg["PS"] <= avg["uDEB"]) {
		t.Errorf("uDEB (%v) should outlive PS (%v)", avg["uDEB"], avg["PS"])
	}
	if !(avg["uDEB"] < avg["vDEB"]) {
		t.Errorf("vDEB (%v) should outlive uDEB (%v)", avg["vDEB"], avg["uDEB"])
	}
	if !(avg["PAD"] > avg["vDEB"]) || !(avg["PAD"] >= avg["PSPC"]) {
		t.Errorf("PAD (%v) should be the longest (vDEB %v, PSPC %v)",
			avg["PAD"], avg["vDEB"], avg["PSPC"])
	}
	if r.PADvsConv < 1.6 {
		t.Errorf("PAD/Conv = %v, want within the paper's 1.6-11x+ band", r.PADvsConv)
	}
	if r.PADvsBestPrior < 1.0 {
		t.Errorf("PAD/BestPrior = %v, PAD must at least match the best prior art", r.PADvsBestPrior)
	}
	// Dense attacks are at least as damaging as sparse ones.
	byScenario := map[string]time.Duration{}
	for _, c := range r.Cells {
		byScenario[c.Scenario] += c.Survival
	}
	if byScenario["Dense"] > byScenario["Sparse"] {
		t.Errorf("dense attacks (%v total) should not be gentler than sparse (%v)",
			byScenario["Dense"], byScenario["Sparse"])
	}
}

func TestFig16ThroughputOrdering(t *testing.T) {
	r, err := Fig16A(quick)
	if err != nil {
		t.Fatal(err)
	}
	mean := map[string]float64{}
	count := map[string]int{}
	var worstRatePAD, worstRateConv float64 = 1, 1
	for _, pt := range r.Points {
		mean[pt.Scheme] += pt.Throughput
		count[pt.Scheme]++
		if pt.Scheme == "PAD" && pt.Throughput < worstRatePAD {
			worstRatePAD = pt.Throughput
		}
		if pt.Scheme == "Conv" && pt.Throughput < worstRateConv {
			worstRateConv = pt.Throughput
		}
	}
	for k := range mean {
		mean[k] /= float64(count[k])
	}
	if mean["PAD"] <= mean["Conv"] {
		t.Errorf("PAD mean throughput (%v) should beat Conv (%v)", mean["PAD"], mean["Conv"])
	}
	if mean["PAD"] < mean["PSPC"]-0.01 {
		t.Errorf("PAD (%v) should not trail PSPC (%v) materially", mean["PAD"], mean["PSPC"])
	}
	// The paper: PAD keeps degradation under ~5%; Conv loses more.
	if worstRatePAD < 0.95 {
		t.Errorf("PAD worst-case throughput %v, want >= 0.95", worstRatePAD)
	}
	if worstRateConv > worstRatePAD {
		t.Errorf("Conv (%v) should be hit harder than PAD (%v)", worstRateConv, worstRatePAD)
	}
}

func TestFig16BWidthHurts(t *testing.T) {
	r, err := Fig16B(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Conv at the widest spike loses at least as much as at the narrowest.
	var narrow, wide float64
	for _, pt := range r.Points {
		if pt.Scheme != "Conv" {
			continue
		}
		if pt.X == 0.2 {
			narrow = pt.Throughput
		}
		if pt.X == 0.6 {
			wide = pt.Throughput
		}
	}
	if wide > narrow+0.005 {
		t.Errorf("wider spikes should not improve Conv throughput: %v vs %v", wide, narrow)
	}
}

func TestFig17CapacityBuysSurvival(t *testing.T) {
	r, err := Fig17(quick)
	if err != nil {
		t.Fatal(err)
	}
	first := r.Points[0]
	last := r.Points[len(r.Points)-1]
	if last.Survival <= first.Survival {
		t.Fatalf("more μDEB capacity should buy survival: %v -> %v",
			first.Survival, last.Survival)
	}
	if last.NormalizedSurvival < 2 {
		t.Fatalf("normalized survival gain %v, want the dramatic knee (>2x in quick mode)",
			last.NormalizedSurvival)
	}
	// Cost grows linearly with capacity.
	if last.CostRatio <= first.CostRatio {
		t.Fatal("cost ratio should grow with capacity")
	}
	ratio := (last.CostRatio / first.CostRatio) / (last.Fraction / first.Fraction)
	if ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("cost should be linear in capacity, got nonlinearity factor %v", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	if a.EffectiveAttacks != b.EffectiveAttacks {
		t.Fatal("experiments are not deterministic")
	}
	for i := range a.Draw.Values {
		if a.Draw.Values[i] != b.Draw.Values[i] {
			t.Fatalf("draw traces diverge at %d", i)
		}
	}
}

func TestSeedChangesResults(t *testing.T) {
	a, err := Fig7(Params{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig7(Params{Quick: true, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Draw.Values {
		if a.Draw.Values[i] != b.Draw.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}
