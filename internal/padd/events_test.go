package padd

import "testing"

// TestEventRingRetention pins the event log's retention rule across its
// on-demand growth: whatever the bound and however many events were
// logged, list returns the newest min(k, bound) with contiguous
// sequence numbers, since filters within that window, and the buffer
// never holds more slots than the bound (nor more than a few after two
// events).
func TestEventRingRetention(t *testing.T) {
	for _, size := range []int{1, 5, 512} {
		for _, k := range []int{0, 1, size - 1, size, size + 1, 3*size + 2} {
			r := newEventRing(size)
			for i := 0; i < k; i++ {
				r.add(Event{Tick: i})
				if c := cap(r.buf); c > size {
					t.Fatalf("size %d: cap(buf) = %d after %d events", size, c, i+1)
				}
				if c := cap(r.buf); i == 1 && c > 4 {
					t.Fatalf("size %d: cap(buf) = %d after two events, want <= 4", size, c)
				}
			}
			kept := min(k, size)
			first := uint64(k - kept) // oldest retained Seq
			check := func(since uint64, want int) {
				t.Helper()
				got := r.list(since)
				if len(got) != want {
					t.Fatalf("size %d, %d events: list(%d) returned %d, want %d", size, k, since, len(got), want)
				}
				for i, e := range got {
					seq := uint64(k-want) + uint64(i)
					if e.Seq != seq || e.Tick != int(seq) {
						t.Fatalf("size %d, %d events: list(%d)[%d] = seq %d tick %d, want %d",
							size, k, since, i, e.Seq, e.Tick, seq)
					}
				}
			}
			check(0, kept)
			if first > 0 {
				check(first-1, kept) // below the window: everything retained
			}
			if kept > 1 {
				check(first+1, kept-1) // inside the window
			}
			check(uint64(k), 0)   // at the next Seq
			check(uint64(k)+7, 0) // beyond it
		}
	}
}

// TestEventRingConcurrentReaders lists the log while it grows and
// wraps: every snapshot a reader takes is a contiguous run of sequence
// numbers, however the writer reallocated the buffer around it.
func TestEventRingConcurrentReaders(t *testing.T) {
	const size, n = 64, 1000
	r := newEventRing(size)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			r.add(Event{Tick: i})
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		got := r.list(0)
		for i := 1; i < len(got); i++ {
			if got[i].Seq != got[i-1].Seq+1 || got[i].Tick != int(got[i].Seq) {
				t.Fatalf("snapshot not contiguous at %d: seq %d after %d", i, got[i].Seq, got[i-1].Seq)
			}
		}
		if len(got) > size {
			t.Fatalf("snapshot holds %d events, bound %d", len(got), size)
		}
	}
}
