// Package stats provides the statistical primitives used by Speedlight's
// measurement analyses: empirical CDFs, summary statistics, and rank
// correlation with significance testing.
//
// The paper's evaluation reports CDFs of synchronization and of load
// imbalance (Figures 9 and 12) and pairwise Spearman correlation
// coefficients with a significance cutoff (Figure 13). Everything needed
// to regenerate those analyses lives here, implemented on the standard
// library only.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// PopStddev returns the population standard deviation (n denominator).
// The load-balance experiment reports the spread of uplink EWMAs at a
// single instant, which is a complete population, not a sample.
func PopStddev(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Min returns the smallest element of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// CDF is an empirical cumulative distribution function built from a set
// of samples. The zero value is not usable; construct with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. The input slice is copied
// and may be reused by the caller.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the number of samples underlying the CDF.
func (c *CDF) N() int { return len(c.sorted) }

// At returns the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics. Quantile(0.5) is the median.
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := pos - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// Median returns the 50th percentile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// MaxValue returns the largest sample, or NaN when empty.
func (c *CDF) MaxValue() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// MinValue returns the smallest sample, or NaN when empty.
func (c *CDF) MinValue() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Point is one (x, cumulative fraction) coordinate of an empirical CDF.
type Point struct {
	X float64
	F float64
}

// Points returns up to n evenly spaced points of the CDF suitable for
// plotting or printing as a table series. The returned slice always
// includes the first and last samples.
func (c *CDF) Points(n int) []Point {
	m := len(c.sorted)
	if m == 0 || n <= 0 {
		return nil
	}
	if n > m {
		n = m
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (m - 1) / max(n-1, 1)
		pts = append(pts, Point{X: c.sorted[idx], F: float64(idx+1) / float64(m)})
	}
	return pts
}

// ErrShortSeries is returned by correlation functions when the two series
// are shorter than the minimum length for the statistic.
var ErrShortSeries = errors.New("stats: series too short")

// ErrLengthMismatch is returned when paired series differ in length.
var ErrLengthMismatch = errors.New("stats: series length mismatch")

// ranks assigns average ranks (1-based) to xs, resolving ties by the
// midrank convention as required for Spearman's rho.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	rk := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			rk[idx[k]] = avg
		}
		i = j + 1
	}
	return rk
}

// Pearson returns the Pearson product-moment correlation of x and y.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	n := len(x)
	if n < 2 {
		return 0, ErrShortSeries
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil // A constant series is uncorrelated with anything.
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns Spearman's rank correlation coefficient rho and the
// two-sided p-value of the null hypothesis rho == 0, computed with the
// standard t-distribution approximation
//
//	t = rho * sqrt((n-2) / (1 - rho^2)),  df = n-2.
//
// Ties are handled with midranks. This is the test used in the paper's
// Section 8.4 (citing Croux & Dehon) with a significance cutoff on p.
func Spearman(x, y []float64) (rho, p float64, err error) {
	if len(x) != len(y) {
		return 0, 0, ErrLengthMismatch
	}
	n := len(x)
	if n < 3 {
		return 0, 0, ErrShortSeries
	}
	rho, err = Pearson(ranks(x), ranks(y))
	if err != nil {
		return 0, 0, err
	}
	p = spearmanP(rho, n)
	return rho, p, nil
}

// spearmanP computes the two-sided p-value for rho with n samples.
func spearmanP(rho float64, n int) float64 {
	if rho >= 1 || rho <= -1 {
		return 0
	}
	df := float64(n - 2)
	t := rho * math.Sqrt(df/(1-rho*rho))
	return 2 * studentTSF(math.Abs(t), df)
}

// studentTSF returns P(T > t) for Student's t with df degrees of freedom,
// for t >= 0, via the regularized incomplete beta function.
func studentTSF(t, df float64) float64 {
	if t <= 0 {
		return 0.5
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes style,
// modified Lentz's method).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	if x < (a+1)/(a+b+2) {
		return incBetaFront(a, b, x) * betaCF(a, b, x)
	}
	// Symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a), evaluated directly
	// (no recursion: a floating-point boundary case could bounce between
	// the two forms forever).
	return 1 - incBetaFront(b, a, 1-x)*betaCF(b, a, 1-x)
}

// incBetaFront is the prefactor x^a (1-x)^b / (a B(a,b)) of the
// continued-fraction form of the incomplete beta function.
func incBetaFront(a, b, x float64) float64 {
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	return math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta) / a
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by modified Lentz's method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// QNorm returns the quantile function (inverse CDF) of the standard
// normal distribution, using Acklam's rational approximation (relative
// error below 1.15e-9 across the full open interval).
func QNorm(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		default:
			return math.NaN()
		}
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
