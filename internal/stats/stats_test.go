package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEq(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	// Population stddev of the classic example is exactly 2.
	if got := PopStddev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("PopStddev = %v, want 2", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of single element should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 {
		t.Errorf("Min = %v", Min(xs))
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Min(empty) did not panic")
		}
	}()
	Min(nil)
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if c.N() != 5 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.At(3); !almostEq(got, 0.6, 1e-12) {
		t.Errorf("At(3) = %v, want 0.6", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v, want 1", got)
	}
	if got := c.Median(); !almostEq(got, 3, 1e-12) {
		t.Errorf("Median = %v, want 3", got)
	}
	if c.MinValue() != 1 || c.MaxValue() != 5 {
		t.Errorf("Min/Max = %v/%v", c.MinValue(), c.MaxValue())
	}
}

func TestCDFQuantileInterpolation(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	if got := c.Quantile(0.25); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("Quantile(0.25) = %v, want 2.5", got)
	}
	if got := c.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.Median()) {
		t.Error("Median of empty CDF should be NaN")
	}
	if c.At(1) != 0 {
		t.Error("At on empty CDF should be 0")
	}
	if c.Points(5) != nil {
		t.Error("Points on empty CDF should be nil")
	}
}

func TestCDFPoints(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	c := NewCDF(samples)
	pts := c.Points(11)
	if len(pts) != 11 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 99 {
		t.Errorf("endpoints = %v, %v", pts[0], pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].F < pts[i-1].F {
			t.Errorf("points not monotone at %d: %v -> %v", i, pts[i-1], pts[i])
		}
	}
}

// Property: CDF At() is monotone non-decreasing and bounded in [0, 1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe1, probe2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		if math.IsNaN(probe1) || math.IsNaN(probe2) {
			return true
		}
		c := NewCDF(raw)
		lo, hi := probe1, probe2
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b := c.At(lo), c.At(hi)
		return a <= b && a >= 0 && b <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(50)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = r.NormFloat64() * 100
		}
		c := NewCDF(samples)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.Quantile(q)
			if v < prev {
				t.Fatalf("Quantile not monotone: q=%v v=%v prev=%v", q, v, prev)
			}
			prev = v
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("constant series correlation = %v, want 0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err != ErrShortSeries {
		t.Errorf("want ErrShortSeries, got %v", err)
	}
}

func TestRanksWithTies(t *testing.T) {
	rk := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if rk[i] != want[i] {
			t.Errorf("ranks[%d] = %v, want %v", i, rk[i], want[i])
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// A monotone nonlinear relation has rho exactly 1.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Exp(v)
	}
	rho, p, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rho, 1, 1e-12) {
		t.Errorf("rho = %v, want 1", rho)
	}
	if p > 1e-6 {
		t.Errorf("p = %v, want ~0", p)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Classic textbook example.
	x := []float64{106, 86, 100, 101, 99, 103, 97, 113, 112, 110}
	y := []float64{7, 0, 27, 50, 28, 29, 20, 12, 6, 17}
	rho, _, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rho, -0.17575757575, 1e-9) {
		t.Errorf("rho = %v, want -0.1757...", rho)
	}
}

func TestSpearmanIndependentIsInsignificant(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	insig := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		n := 50
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = r.Float64()
			y[i] = r.Float64()
		}
		_, p, err := Spearman(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if p >= 0.1 {
			insig++
		}
	}
	// With alpha=0.1 we expect ~90% of independent pairs to be
	// insignificant; allow generous slack.
	if insig < trials*3/4 {
		t.Errorf("only %d/%d independent pairs insignificant", insig, trials)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, _, err := Spearman([]float64{1, 2}, []float64{1, 2}); err != ErrShortSeries {
		t.Errorf("want ErrShortSeries, got %v", err)
	}
	if _, _, err := Spearman([]float64{1, 2, 3}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
}

// Property: Spearman rho is symmetric and within [-1, 1].
func TestSpearmanProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 3 + r.Intn(40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = math.Floor(r.Float64() * 10) // induce ties
			y[i] = math.Floor(r.Float64() * 10)
		}
		r1, p1, err1 := Spearman(x, y)
		r2, p2, err2 := Spearman(y, x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !almostEq(r1, r2, 1e-12) || !almostEq(p1, p2, 1e-12) {
			t.Fatalf("asymmetric: (%v,%v) vs (%v,%v)", r1, p1, r2, p2)
		}
		if r1 < -1-1e-12 || r1 > 1+1e-12 {
			t.Fatalf("rho out of range: %v", r1)
		}
		if p1 < 0 || p1 > 1+1e-9 {
			t.Fatalf("p out of range: %v", p1)
		}
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x (uniform distribution CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := regIncBeta(1, 1, x); !almostEq(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(2,2) = 3x^2 - 2x^3.
	for _, x := range []float64{0.1, 0.3, 0.5, 0.9} {
		want := 3*x*x - 2*x*x*x
		if got := regIncBeta(2, 2, x); !almostEq(got, want, 1e-10) {
			t.Errorf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
}

func TestStudentTSF(t *testing.T) {
	// For df -> large, t=1.96 should give a one-sided tail near 0.025.
	got := studentTSF(1.96, 1000)
	if !almostEq(got, 0.025, 0.002) {
		t.Errorf("SF(1.96, 1000) = %v, want ~0.025", got)
	}
	// Symmetry point.
	if got := studentTSF(0, 10); got != 0.5 {
		t.Errorf("SF(0) = %v, want 0.5", got)
	}
	// Known: t with 1 df is Cauchy; P(T > 1) = 0.25.
	if got := studentTSF(1, 1); !almostEq(got, 0.25, 1e-6) {
		t.Errorf("SF(1,1) = %v, want 0.25", got)
	}
}

func TestCorrMatrix(t *testing.T) {
	// Three series: s0 and s1 strongly correlated, s2 independent noise.
	n := 60
	r := rand.New(rand.NewSource(5))
	s0 := make([]float64, n)
	s1 := make([]float64, n)
	s2 := make([]float64, n)
	for i := 0; i < n; i++ {
		base := r.Float64()
		s0[i] = base + 0.01*r.Float64()
		s1[i] = base + 0.01*r.Float64()
		s2[i] = r.Float64()
	}
	m, err := NewCorrMatrix([][]float64{s0, s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 3 {
		t.Fatalf("N = %d", m.N)
	}
	if m.Rho[0][1] < 0.9 {
		t.Errorf("Rho[0][1] = %v, want > 0.9", m.Rho[0][1])
	}
	if m.Rho[0][1] != m.Rho[1][0] {
		t.Error("matrix not symmetric")
	}
	if m.Rho[2][2] != 1 {
		t.Error("diagonal should be 1")
	}
	sig := m.SignificantPairs(0.01)
	found01 := false
	for _, s := range sig {
		if s.I == 0 && s.J == 1 {
			found01 = true
		}
	}
	if !found01 {
		t.Error("pair (0,1) should be significant")
	}
	if len(m.Results) != 3 {
		t.Errorf("expected 3 upper-triangle results, got %d", len(m.Results))
	}
	if m.SignificantCount(0.01) != len(sig) {
		t.Error("SignificantCount mismatch")
	}
}

func TestCorrMatrixShortSeries(t *testing.T) {
	if _, err := NewCorrMatrix([][]float64{{1, 2}, {1, 2}}); err == nil {
		t.Error("expected error for short series")
	}
}

func TestSpearmanDetectsCorrelationWithNoise(t *testing.T) {
	sorted := make([]float64, 30)
	noisy := make([]float64, 30)
	r := rand.New(rand.NewSource(3))
	for i := range sorted {
		sorted[i] = float64(i)
		noisy[i] = float64(i) + 3*r.NormFloat64()
	}
	rho, p, err := Spearman(sorted, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.7 {
		t.Errorf("rho = %v, want strong positive", rho)
	}
	if p > 0.01 {
		t.Errorf("p = %v, want significant", p)
	}
	_ = sort.Float64sAreSorted
}

func TestQNorm(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.999, 3.090232},
		{0.1586552539, -1}, // Phi(-1)
	}
	for _, c := range cases {
		if got := QNorm(c.p); !almostEq(got, c.want, 1e-5) {
			t.Errorf("QNorm(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(QNorm(0), -1) || !math.IsInf(QNorm(1), 1) {
		t.Error("QNorm endpoints")
	}
	if !math.IsNaN(QNorm(-0.5)) {
		t.Error("QNorm out of range should be NaN")
	}
}

func TestQNormRoundTrip(t *testing.T) {
	// QNorm is the inverse of the normal CDF: check against erf.
	for p := 0.001; p < 1; p += 0.013 {
		z := QNorm(p)
		cdf := 0.5 * (1 + math.Erf(z/math.Sqrt2))
		if !almostEq(cdf, p, 1e-7) {
			t.Fatalf("CDF(QNorm(%v)) = %v", p, cdf)
		}
	}
}
