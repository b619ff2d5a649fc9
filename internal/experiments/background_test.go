package experiments

import (
	"runtime"
	"testing"
)

// TestFig5BackgroundAllocation: Figure 5's full-scale background, 220
// series of 4,032 five-minute steps, is binned as its fortnight of tasks
// is drawn, so building it allocates little beyond the series it
// returns. Drawing the 480,140 tasks first and binning them afterwards
// allocated about 3.2× the series' bytes.
func TestFig5BackgroundAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bg, err := fig5Background(Params{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	series := 0
	for _, s := range bg {
		series += 8 * len(s.Values)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes for %d bytes of series (%.2f×)", alloc, series, float64(alloc)/float64(series))
	if series != 220*4032*8 {
		t.Fatalf("%d bytes of series, want 220 × 4,032 float64s", series)
	}
	if float64(alloc) > 1.1*float64(series) {
		t.Errorf("building the background allocated %d bytes, over 1.1× its %d bytes of series", alloc, series)
	}
}
