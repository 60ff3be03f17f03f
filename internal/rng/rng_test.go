package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestMixIsPure(t *testing.T) {
	if Mix(7, 1, 2, 3) != Mix(7, 1, 2, 3) {
		t.Fatal("Mix is not deterministic")
	}
	if Mix(7, 1, 2) == Mix(7, 2, 1) {
		t.Fatal("Mix should be order-sensitive")
	}
	if Mix(7, 1) == Mix(8, 1) {
		t.Fatal("Mix should depend on the base seed")
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := New(9)
	b := New(9)
	// Consume a but not b; splits must still agree.
	for i := 0; i < 57; i++ {
		a.Uint64()
	}
	ca := a.Split(3, 1)
	cb := b.Split(3, 1)
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatalf("split children diverged at draw %d", i)
		}
	}
}

func TestSplitLabelsDistinguish(t *testing.T) {
	r := New(5)
	a := r.Split(1)
	b := r.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("children of labels 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(12)
	for i := 0; i < 10000; i++ {
		x := r.Uniform(-3, 5)
		if x < -3 || x >= 5 {
			t.Fatalf("Uniform out of [-3,5): %v", x)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormalScaled(t *testing.T) {
	r := New(14)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormalScaled(10, 0.5)
	}
	mean := sum / float64(n)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("scaled normal mean = %v, want ~10", mean)
	}
}

func TestGammaMean(t *testing.T) {
	// Gamma(k, 1) has mean k, for shapes above and below 1.
	for _, shape := range []float64{0.5, 1, 2.5, 7} {
		r := New(15)
		n := 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += r.Gamma(shape)
		}
		mean := sum / float64(n)
		if math.Abs(mean-shape) > 0.08*math.Max(1, shape) {
			t.Errorf("Gamma(%v) mean = %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestGammaNonPositiveShape(t *testing.T) {
	r := New(16)
	if got := r.Gamma(0); got != 0 {
		t.Errorf("Gamma(0) = %v, want 0", got)
	}
	if got := r.Gamma(-1); got != 0 {
		t.Errorf("Gamma(-1) = %v, want 0", got)
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	r := New(17)
	for _, alpha := range []float64{0.01, 0.5, 1, 10} {
		out := make([]float64, 8)
		r.Dirichlet(alpha, out)
		var sum float64
		for _, x := range out {
			if x < 0 {
				t.Fatalf("alpha=%v: negative weight %v", alpha, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("alpha=%v: sum = %v, want 1", alpha, sum)
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	// Small alpha should concentrate mass: max weight should usually
	// dominate; large alpha should flatten.
	r := New(18)
	maxOf := func(alpha float64) float64 {
		out := make([]float64, 10)
		var total float64
		for i := 0; i < 200; i++ {
			r.Dirichlet(alpha, out)
			m := 0.0
			for _, x := range out {
				if x > m {
					m = x
				}
			}
			total += m
		}
		return total / 200
	}
	small := maxOf(0.05)
	large := maxOf(50)
	if small < large {
		t.Errorf("expected small-alpha max weight (%v) > large-alpha (%v)", small, large)
	}
	if large > 0.2 {
		t.Errorf("alpha=50 should be near-uniform over 10 bins, got mean max %v", large)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, i := range p {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[i] = true
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(20)
	got := r.SampleWithoutReplacement(50, 10)
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if i < 0 || i >= 50 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	// k >= n returns all indices.
	all := r.SampleWithoutReplacement(5, 9)
	if len(all) != 5 {
		t.Fatalf("k>=n: len = %d, want 5", len(all))
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(21)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestMixPropertyDistinctLabels(t *testing.T) {
	// Property: distinct single labels almost never collide.
	f := func(seed, a, b uint64) bool {
		if a == b {
			return true
		}
		return Mix(seed, a) != Mix(seed, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(23)
	xs := make([]int, 64)
	for i := range xs {
		xs[i] = i
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, 64)
	for _, x := range xs {
		if seen[x] {
			t.Fatalf("duplicate after shuffle: %d", x)
		}
		seen[x] = true
	}
}

// TestPermIntoMatchesPerm requires PermInto to draw exactly what Perm
// draws, so callers can switch to it without moving any seeded stream,
// and to allocate nothing.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 300} {
		a, b := New(uint64(n)+9), New(uint64(n)+9)
		want := a.Perm(n)
		got := make([]int, n)
		b.PermInto(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto[%d] = %d, Perm = %d", n, i, got[i], want[i])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: streams diverge after the permutation", n)
		}
	}
	r, p := New(1), make([]int, 100)
	if allocs := testing.AllocsPerRun(20, func() { r.PermInto(p) }); allocs != 0 {
		t.Errorf("PermInto allocates %.0f times per call", allocs)
	}
}

// TestReseedMatchesNew requires a reseeded RNG to continue exactly as a
// fresh one, whatever it drew before.
func TestReseedMatchesNew(t *testing.T) {
	r := New(5)
	for i := 0; i < 17; i++ {
		r.Normal()
	}
	r.Reseed(77)
	fresh := New(77)
	if r.Seed() != 77 {
		t.Fatalf("Seed() = %d after Reseed(77)", r.Seed())
	}
	for i := 0; i < 50; i++ {
		if a, b := r.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d: reseeded %d, fresh %d", i, a, b)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { r.Reseed(3) }); allocs != 0 {
		t.Errorf("Reseed allocates %.0f times per call", allocs)
	}
}
