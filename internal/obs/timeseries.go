package obs

import (
	"sync"
	"time"
)

// Series is a fixed-capacity ring-buffer time series with tiered
// downsampling: every appended sample lands in each tier, where
// consecutive samples merge into fixed-width buckets (min/max/last,
// plus the merged-sample count). Coarser tiers cover longer horizons in
// the same memory, so a dashboard can ask for "the last two minutes at
// raw resolution" and "the last two hours at one-minute resolution"
// from the same object.
//
// The write path is allocation-free in steady state (the ring storage
// is grown once, on first append) and takes one short mutex hold per
// Append, so a single writer and any number of concurrent Snapshot
// readers are safe; readers never block the writer for longer than one
// bucket copy. Samples are indexed, not timestamped: the caller maps
// sample index to time (padd appends exactly one sample per engine
// tick, so bucket start time = bucket index × step × tick).
type Series struct {
	mu    sync.Mutex
	n     uint64 // samples appended
	tiers []seriesTier
}

// TierSpec sizes one downsampling tier: Step base samples merge into
// one bucket, and the newest Cap buckets are retained.
type TierSpec struct {
	Step int
	Cap  int
}

// Bucket is one downsampled bucket: the min/max/last of the samples
// merged into it. Index is the bucket ordinal (first sample index /
// step); Count is how many samples merged (Count < Step means the
// bucket is still filling, or the series started mid-bucket).
type Bucket struct {
	Index uint64  `json:"index"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Last  float64 `json:"last"`
	Count uint32  `json:"count"`
}

// seriesTier is one ring of buckets. Bucket indexes are contiguous
// (samples arrive one at a time, so a new bucket's index is always the
// previous one's plus one), which lets the ring store only the values:
// the Index of the bucket at ring position i is lastIndex-(count-1)+i
// counted from the oldest retained bucket.
type seriesTier struct {
	step      int
	buf       []bucketCell
	head      int    // ring position of the oldest retained bucket
	count     int    // retained buckets
	lastIndex uint64 // bucket index of the newest bucket (valid when count > 0)
}

// bucketCell is the in-ring representation; Index is derived on
// snapshot rather than stored, keeping a cell at 28 bytes so fleet-wide
// per-session rings stay cheap.
type bucketCell struct {
	min, max, last float64
	count          uint32
}

// NewSeries builds a series with the given tiers. Tiers with Step or
// Cap < 1 are clamped to 1. Ring storage is allocated lazily on the
// first Append, so constructing many series for sessions that never
// record costs only the headers.
func NewSeries(tiers ...TierSpec) *Series {
	s := &Series{tiers: make([]seriesTier, len(tiers))}
	for i, t := range tiers {
		if t.Step < 1 {
			t.Step = 1
		}
		if t.Cap < 1 {
			t.Cap = 1
		}
		s.tiers[i] = seriesTier{step: t.Step}
		s.tiers[i].buf = nil     // allocated on first Append
		s.tiers[i].head = -t.Cap // stash Cap until allocation (head unused while buf is nil)
	}
	return s
}

// Len returns the number of samples appended so far.
func (s *Series) Len() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Tiers returns the tier geometry (step in base samples, capacity in
// buckets), coarsest last.
func (s *Series) Tiers() []TierSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TierSpec, len(s.tiers))
	for i := range s.tiers {
		cap := len(s.tiers[i].buf)
		if cap == 0 {
			cap = -s.tiers[i].head
		}
		out[i] = TierSpec{Step: s.tiers[i].step, Cap: cap}
	}
	return out
}

// Append records one sample into every tier. Allocation-free after the
// first call; safe with concurrent Snapshot readers.
func (s *Series) Append(v float64) {
	s.mu.Lock()
	idx := s.n
	s.n++
	for i := range s.tiers {
		t := &s.tiers[i]
		if t.buf == nil {
			t.buf = make([]bucketCell, -t.head)
			t.head = 0
		}
		bi := idx / uint64(t.step)
		if t.count > 0 && bi == t.lastIndex {
			// Merge into the filling bucket.
			c := &t.buf[(t.head+t.count-1)%len(t.buf)]
			if v < c.min {
				c.min = v
			}
			if v > c.max {
				c.max = v
			}
			c.last = v
			c.count++
			continue
		}
		// Open a new bucket, evicting the oldest when the ring is full.
		pos := (t.head + t.count) % len(t.buf)
		if t.count == len(t.buf) {
			pos = t.head
			t.head = (t.head + 1) % len(t.buf)
		} else {
			t.count++
		}
		t.buf[pos] = bucketCell{min: v, max: v, last: v, count: 1}
		t.lastIndex = bi
	}
	s.mu.Unlock()
}

// Snapshot copies tier's retained buckets, oldest first, appending to
// dst (pass nil to allocate). Buckets with Index*Step < since (a sample
// index) are skipped, so pollers can fetch incrementally. An
// out-of-range tier yields no buckets.
func (s *Series) Snapshot(tier int, since uint64, dst []Bucket) []Bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tier < 0 || tier >= len(s.tiers) {
		return dst
	}
	t := &s.tiers[tier]
	for i := 0; i < t.count; i++ {
		idx := t.lastIndex - uint64(t.count-1-i)
		if idx*uint64(t.step) < since {
			continue
		}
		c := &t.buf[(t.head+i)%len(t.buf)]
		dst = append(dst, Bucket{
			Index: idx,
			Min:   c.min,
			Max:   c.max,
			Last:  c.last,
			Count: c.count,
		})
	}
	return dst
}

// DefaultTiers builds the standard three-tier geometry for a stream
// sampled every tick: roughly 1s raw buckets for the last couple of
// minutes, 10s buckets for the last quarter hour, and 1m buckets for
// the last two hours. Ticks coarser than a tier's resolution clamp that
// tier to one sample per bucket.
func DefaultTiers(tick time.Duration) []TierSpec {
	step := func(res time.Duration) int {
		if tick <= 0 {
			return 1
		}
		n := int(res / tick)
		if n < 1 {
			n = 1
		}
		return n
	}
	return []TierSpec{
		{Step: step(time.Second), Cap: 120},
		{Step: step(10 * time.Second), Cap: 90},
		{Step: step(time.Minute), Cap: 120},
	}
}
