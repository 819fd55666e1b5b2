package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

const sampleN = 20000

func sampleMean(d Dist, seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < sampleN; i++ {
		sum += d.Sample(r)
	}
	return sum / sampleN
}

func TestConstant(t *testing.T) {
	d := Constant{V: 3.5}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 3.5 {
			t.Fatal("Constant must always return V")
		}
	}
	if d.Mean() != 3.5 {
		t.Error("Mean mismatch")
	}
}

func TestNormal(t *testing.T) {
	d := Normal{Mu: 10, Sigma: 2}
	if got := sampleMean(d, 4); math.Abs(got-10) > 0.1 {
		t.Errorf("empirical mean %v, want ~10", got)
	}
	if d.Mean() != 10 {
		t.Error("Mean mismatch")
	}
}

func TestLogNormal(t *testing.T) {
	d := LogNormal{Mu: 1, Sigma: 0.5}
	want := math.Exp(1 + 0.125)
	if got := sampleMean(d, 5); math.Abs(got-want)/want > 0.05 {
		t.Errorf("empirical mean %v, want ~%v", got, want)
	}
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		if d.Sample(r) <= 0 {
			t.Fatal("lognormal sample must be positive")
		}
	}
}

func TestLogNormalFromMedianP99(t *testing.T) {
	d := LogNormalFromMedianP99(6.4, 22)
	// Median of lognormal is exp(mu).
	if got := math.Exp(d.Mu); math.Abs(got-6.4) > 1e-9 {
		t.Errorf("median %v, want 6.4", got)
	}
	// Empirical p99 should be near 22.
	r := rand.New(rand.NewSource(7))
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = d.Sample(r)
	}
	sort.Float64s(samples)
	if got := samples[len(samples)*99/100]; math.Abs(got-22)/22 > 0.1 {
		t.Errorf("p99 %v, want ~22", got)
	}
}

func TestLogNormalFromMedianP99Degenerate(t *testing.T) {
	d := LogNormalFromMedianP99(5, 3) // p99 < median: degenerate
	if d.Sigma != 0 {
		t.Errorf("expected sigma 0, got %v", d.Sigma)
	}
	r := rand.New(rand.NewSource(8))
	if got := d.Sample(r); math.Abs(got-5) > 1e-9 {
		t.Errorf("degenerate sample %v, want 5", got)
	}
}

func TestDeterminism(t *testing.T) {
	// Identical seeds must give identical streams for every distribution.
	dists := []Dist{
		Constant{V: 1},
		Normal{Mu: 0, Sigma: 1},
		LogNormal{Mu: 0, Sigma: 1},
	}
	for _, d := range dists {
		r1 := rand.New(rand.NewSource(77))
		r2 := rand.New(rand.NewSource(77))
		for i := 0; i < 100; i++ {
			if d.Sample(r1) != d.Sample(r2) {
				t.Fatalf("%T not deterministic", d)
			}
		}
	}
}
