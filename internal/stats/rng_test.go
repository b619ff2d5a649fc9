package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	c1 := root.Split(1)
	c2 := root.Split(2)
	// Streams from different labels should not coincide.
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split streams with different labels coincide")
	}
	// Split must be a pure function of (state, label).
	r2 := NewRNG(7)
	d1 := r2.Split(1)
	c1b := NewRNG(7).Split(1)
	if d1.Uint64() != c1b.Uint64() {
		t.Fatal("split is not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(6)
	const n = 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm(10, 3)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", m)
	}
	if s := StdDev(xs); math.Abs(s-3) > 0.05 {
		t.Errorf("normal stddev = %v, want ~3", s)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(9)
	for _, mean := range []float64{0.5, 3, 12, 50} {
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			k := r.Poisson(mean)
			if k < 0 {
				t.Fatalf("Poisson returned negative %d", k)
			}
			sum += k
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.1*mean+0.1 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	// Knuth's loop stops once the running product drops to exp(-mean),
	// which it never does for a NaN mean.
	for _, mean := range []float64{0, -1, math.NaN()} {
		if k := NewRNG(1).Poisson(mean); k != 0 {
			t.Errorf("Poisson(%v) = %d, want 0", mean, k)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(10)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func TestRange(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("Range(5,9) = %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(12)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", p)
	}
}

func TestDeriveSeedDeterministic(t *testing.T) {
	if DeriveSeed(42, "fig15/PAD") != DeriveSeed(42, "fig15/PAD") {
		t.Fatal("DeriveSeed is not a pure function of (base, key)")
	}
}

func TestDeriveSeedSeparatesKeysAndBases(t *testing.T) {
	keys := []string{"", "a", "b", "ab", "ba", "fig8a/PAD/nodes=4/os=0.75", "fig8a/PAD/nodes=5/os=0.75"}
	seen := map[uint64]string{}
	for _, k := range keys {
		s := DeriveSeed(1, k)
		if prev, dup := seen[s]; dup {
			t.Errorf("keys %q and %q derive the same seed", prev, k)
		}
		seen[s] = k
	}
	for _, k := range keys {
		if DeriveSeed(1, k) == DeriveSeed(2, k) {
			t.Errorf("key %q derives the same seed under bases 1 and 2", k)
		}
	}
}

func TestDeriveSeedStreamsIndependent(t *testing.T) {
	// Seeds for sibling runs must give uncorrelated streams, not merely
	// distinct first draws.
	a := NewRNG(DeriveSeed(7, "sweep/run=0"))
	b := NewRNG(DeriveSeed(7, "sweep/run=1"))
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling run streams coincide on %d of 1000 draws", same)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
