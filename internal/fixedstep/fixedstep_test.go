package fixedstep

import (
	"testing"
	"time"
)

func TestKeyZeroValueMisses(t *testing.T) {
	var k Key
	if k.Hit(100 * time.Millisecond) {
		t.Fatal("first Hit reported a cache hit")
	}
}

func TestKeyHitsOnSameDt(t *testing.T) {
	var k Key
	k.Hit(time.Second)
	for i := 0; i < 3; i++ {
		if !k.Hit(time.Second) {
			t.Fatalf("Hit %d missed on unchanged dt", i)
		}
	}
}

func TestKeyMissesOnDtChange(t *testing.T) {
	var k Key
	k.Hit(time.Second)
	if k.Hit(2 * time.Second) {
		t.Fatal("Hit reported stale coefficients valid after dt change")
	}
	if !k.Hit(2 * time.Second) {
		t.Fatal("Hit missed after rekeying to the new dt")
	}
	// Alternating durations never falsely hit.
	if k.Hit(time.Second) {
		t.Fatal("Hit reported the evicted dt as cached")
	}
}

func TestKeyZeroDtIsARealKey(t *testing.T) {
	// dt == 0 must be distinguishable from the empty cache: models guard
	// dt <= 0 themselves, but the cache must not conflate "empty" with
	// "cached for 0".
	var k Key
	if k.Hit(0) {
		t.Fatal("empty cache hit for dt=0")
	}
	if !k.Hit(0) {
		t.Fatal("cache missed for the cached dt=0")
	}
}
