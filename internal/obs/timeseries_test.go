package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestSeriesRawBuckets checks the base bookkeeping: one-sample buckets,
// indexes and min/max/last on a single raw tier.
func TestSeriesRawBuckets(t *testing.T) {
	s := NewSeries(TierSpec{Step: 1, Cap: 8})
	for i := 0; i < 5; i++ {
		s.Append(float64(i))
	}
	got := s.Snapshot(0, 0, nil)
	if len(got) != 5 {
		t.Fatalf("got %d buckets, want 5", len(got))
	}
	for i, b := range got {
		v := float64(i)
		if b.Index != uint64(i) || b.Min != v || b.Max != v || b.Last != v || b.Count != 1 {
			t.Fatalf("bucket %d = %+v, want index %d value %g count 1", i, b, i, v)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
}

// TestSeriesDownsampling checks bucket merging on a coarser tier:
// min/max/last and the partial (still-filling) final bucket.
func TestSeriesDownsampling(t *testing.T) {
	s := NewSeries(TierSpec{Step: 4, Cap: 8})
	vals := []float64{2, 7, 1, 5 /* bucket 0 */, 9, 3 /* partial bucket 1 */}
	for _, v := range vals {
		s.Append(v)
	}
	got := s.Snapshot(0, 0, nil)
	if len(got) != 2 {
		t.Fatalf("got %d buckets, want 2", len(got))
	}
	want0 := Bucket{Index: 0, Min: 1, Max: 7, Last: 5, Count: 4}
	if got[0] != want0 {
		t.Fatalf("full bucket = %+v, want %+v", got[0], want0)
	}
	want1 := Bucket{Index: 1, Min: 3, Max: 9, Last: 3, Count: 2}
	if got[1] != want1 {
		t.Fatalf("partial bucket = %+v, want %+v", got[1], want1)
	}
}

// TestSeriesWraparound fills a small ring far past capacity and checks
// the retained window is exactly the newest Cap buckets with contiguous
// indexes.
func TestSeriesWraparound(t *testing.T) {
	s := NewSeries(TierSpec{Step: 2, Cap: 3})
	const samples = 26 // 13 buckets through a 3-bucket ring
	for i := 0; i < samples; i++ {
		s.Append(float64(i))
	}
	got := s.Snapshot(0, 0, nil)
	if len(got) != 3 {
		t.Fatalf("got %d buckets, want 3", len(got))
	}
	for i, b := range got {
		wantIdx := uint64(10 + i) // newest bucket is 12, window is 10..12
		if b.Index != wantIdx {
			t.Fatalf("bucket %d index = %d, want %d", i, b.Index, wantIdx)
		}
		lo := float64(b.Index * 2)
		want := Bucket{Index: wantIdx, Min: lo, Max: lo + 1, Last: lo + 1, Count: 2}
		if b != want {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want)
		}
	}
}

// TestSeriesTierPromotion checks that one Append lands in every tier:
// the same samples appear raw, 4x downsampled and 8x downsampled, and
// each tier covers its own (longer) horizon.
func TestSeriesTierPromotion(t *testing.T) {
	s := NewSeries(
		TierSpec{Step: 1, Cap: 4},
		TierSpec{Step: 4, Cap: 4},
		TierSpec{Step: 8, Cap: 4},
	)
	const samples = 32
	for i := 0; i < samples; i++ {
		s.Append(float64(i))
	}
	raw := s.Snapshot(0, 0, nil)
	if len(raw) != 4 || raw[0].Index != 28 || raw[3].Last != 31 {
		t.Fatalf("raw tier window wrong: %+v", raw)
	}
	mid := s.Snapshot(1, 0, nil)
	if len(mid) != 4 {
		t.Fatalf("mid tier has %d buckets, want 4", len(mid))
	}
	// Mid bucket j covers samples [4j, 4j+3]; the retained window is
	// buckets 4..7 (samples 16..31).
	for j, b := range mid {
		idx := uint64(4 + j)
		lo := float64(idx * 4)
		want := Bucket{Index: idx, Min: lo, Max: lo + 3, Last: lo + 3, Count: 4}
		if b != want {
			t.Fatalf("mid bucket %d = %+v, want %+v", j, b, want)
		}
	}
	top := s.Snapshot(2, 0, nil)
	if len(top) != 4 {
		t.Fatalf("top tier has %d buckets, want 4", len(top))
	}
	for j, b := range top {
		idx := uint64(j)
		lo := float64(idx * 8)
		want := Bucket{Index: idx, Min: lo, Max: lo + 7, Last: lo + 7, Count: 8}
		if b != want {
			t.Fatalf("top bucket %d = %+v, want %+v", j, b, want)
		}
	}
}

// TestSeriesEmptyAndSince covers the empty snapshot, the out-of-range
// tier, and the since filter used for incremental polling.
func TestSeriesEmptyAndSince(t *testing.T) {
	s := NewSeries(TierSpec{Step: 2, Cap: 8})
	if got := s.Snapshot(0, 0, nil); len(got) != 0 {
		t.Fatalf("empty series snapshot = %+v, want none", got)
	}
	for i := 0; i < 10; i++ {
		s.Append(float64(i))
	}
	if got := s.Snapshot(1, 0, nil); len(got) != 0 {
		t.Fatalf("out-of-range tier snapshot = %+v, want none", got)
	}
	if got := s.Snapshot(-1, 0, nil); len(got) != 0 {
		t.Fatalf("negative tier snapshot = %+v, want none", got)
	}
	// since=6 skips buckets starting before sample 6: buckets 0..2 go,
	// buckets 3 and 4 stay.
	got := s.Snapshot(0, 6, nil)
	if len(got) != 2 || got[0].Index != 3 || got[1].Index != 4 {
		t.Fatalf("since snapshot = %+v, want buckets 3 and 4", got)
	}
	// Appending to dst accumulates rather than clobbering.
	got = s.Snapshot(0, 8, got)
	if len(got) != 3 || got[2].Index != 4 {
		t.Fatalf("append-to-dst snapshot = %+v, want 3 buckets ending at 4", got)
	}
}

// TestSeriesClamps checks the constructor clamps degenerate geometry
// rather than panicking later.
func TestSeriesClamps(t *testing.T) {
	s := NewSeries(TierSpec{Step: 0, Cap: 0})
	s.Append(3)
	s.Append(4)
	got := s.Snapshot(0, 0, nil)
	if len(got) != 1 || got[0].Index != 1 || got[0].Last != 4 {
		t.Fatalf("clamped series snapshot = %+v, want single bucket 1 last 4", got)
	}
	tiers := s.Tiers()
	if len(tiers) != 1 || tiers[0].Step != 1 || tiers[0].Cap != 1 {
		t.Fatalf("clamped tiers = %+v, want step 1 cap 1", tiers)
	}
}

// TestSeriesTiersBeforeAppend checks geometry introspection works
// before the lazy ring allocation.
func TestSeriesTiersBeforeAppend(t *testing.T) {
	s := NewSeries(TierSpec{Step: 10, Cap: 120}, TierSpec{Step: 600, Cap: 90})
	tiers := s.Tiers()
	if len(tiers) != 2 || tiers[0] != (TierSpec{Step: 10, Cap: 120}) || tiers[1] != (TierSpec{Step: 600, Cap: 90}) {
		t.Fatalf("pre-append tiers = %+v", tiers)
	}
	s.Append(1)
	tiers = s.Tiers()
	if tiers[0] != (TierSpec{Step: 10, Cap: 120}) || tiers[1] != (TierSpec{Step: 600, Cap: 90}) {
		t.Fatalf("post-append tiers = %+v", tiers)
	}
}

// TestSeriesConcurrentSnapshot hammers one writer against many
// snapshot readers under -race, checking every observed snapshot is
// internally consistent: contiguous indexes, counts within step, and
// min <= last <= max.
func TestSeriesConcurrentSnapshot(t *testing.T) {
	s := NewSeries(TierSpec{Step: 1, Cap: 64}, TierSpec{Step: 8, Cap: 32})
	const samples = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(tier int) {
			defer wg.Done()
			var buf []Bucket
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = s.Snapshot(tier%2, 0, buf[:0])
				for i, b := range buf {
					if i > 0 && b.Index != buf[i-1].Index+1 {
						t.Errorf("tier %d: indexes not contiguous: %d after %d", tier%2, b.Index, buf[i-1].Index)
						return
					}
					if b.Min > b.Last || b.Last > b.Max || b.Count == 0 {
						t.Errorf("tier %d: inconsistent bucket %+v", tier%2, b)
						return
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < samples; i++ {
		s.Append(rng.Float64())
	}
	close(stop)
	wg.Wait()
	if s.Len() != samples {
		t.Fatalf("Len = %d, want %d", s.Len(), samples)
	}
}

// TestDefaultTiers checks the tick-to-tier mapping, including coarse
// ticks clamping a tier to one sample per bucket.
func TestDefaultTiers(t *testing.T) {
	got := DefaultTiers(100 * time.Millisecond)
	want := []TierSpec{{Step: 10, Cap: 120}, {Step: 100, Cap: 90}, {Step: 600, Cap: 120}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DefaultTiers(100ms)[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	got = DefaultTiers(5 * time.Second)
	want = []TierSpec{{Step: 1, Cap: 120}, {Step: 2, Cap: 90}, {Step: 12, Cap: 120}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DefaultTiers(5s)[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
