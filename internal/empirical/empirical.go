// Package empirical implements the paper's Section 3: instance-optimal
// eps-DP estimators for the empirical mean and quantiles of a dataset drawn
// from the *unbounded* integer domain Z, plus the real-domain variants
// obtained by discretizing R with a bucket size b (§3.5).
//
// The pipeline is: privatize the radius rad(D) = max|X_i| with an SVT over
// doubling counts (Algorithm 3), locate the data with a private median and
// re-privatize the radius of the recentred data to get a range R̃(D)
// (Algorithm 4), then run the clipped mean (Algorithm 5) or the
// finite-domain inverse-sensitivity quantile (Algorithm 6) inside R̃(D).
//
// Radius, Range and the quantiles see the data only through counts and its
// sorted multiset: each release clamps and sorts one copy, input order
// never changes the result, and sorted input costs the sort only a linear
// pass (clamping, discretization and recentring are monotone). The mean's
// clipped sum reads the data in its original order.
//
// Utility (constant success probability): the mean has error
// O(γ(D)/(εn)·log log γ(D)) — inward-neighborhood optimal with optimality
// ratio O(log log γ(D)/ε) (Theorems 3.3 and 3.4) — and quantiles have rank
// error O(log γ(D)/ε) (Theorem 3.5).
package empirical

import (
	"errors"
	"math"
	"slices"

	"repro/internal/dp"
	"repro/internal/xrand"
)

// maxAbs is the magnitude bound enforced on integer inputs. Values are
// clamped to ±maxAbs on entry — a deterministic per-record map that
// preserves neighboring relations (hence DP) and guarantees that the
// recentring subtraction in Algorithm 4 cannot overflow int64.
const maxAbs = int64(1) << 61

// maxRadiusQueries caps Algorithm 3's SVT sequence. The sequence reaches
// Count(D, 2^62) >= n at query index 64, past every clamped input, so the
// cap is data-independent and unreachable in the absence of extreme noise.
const maxRadiusQueries = 70

// ErrTooFewSamples reports a dataset too small for the requested mechanism.
var ErrTooFewSamples = errors.New("empirical: dataset too small")

// clampInt64 clamps v into [-maxAbs, maxAbs].
func clampInt64(v int64) int64 {
	if v > maxAbs {
		return maxAbs
	}
	if v < -maxAbs {
		return -maxAbs
	}
	return v
}

// sortedClamped returns a clamped copy of data in increasing order. The
// mechanisms below see the data only through counts and order statistics,
// so one sorted copy serves a whole release. Clamping is monotone, so
// sorted input stays sorted and the sort finishes in one linear pass.
func sortedClamped(data []int64) []int64 {
	xs := make([]int64, len(data))
	for i, v := range data {
		xs[i] = clampInt64(v)
	}
	slices.Sort(xs)
	return xs
}

// Radius is Algorithm 3 (InfiniteDomainRadius): an eps-DP estimate r̃ad(D)
// with r̃ad(D) <= 2·rad(D) while [-r̃ad, r̃ad] misses only
// O(log(log(rad(D))/beta)/eps) elements of D, with probability >= 1-beta
// (Theorem 3.1). Input order does not matter; sorted input sorts in
// linear time.
func Radius(rng *xrand.RNG, data []int64, eps, beta float64) (int64, error) {
	return radiusSorted(rng, sortedClamped(data), eps, beta)
}

// radiusSorted is Radius over clamped data in increasing order: each SVT
// count |xs ∩ [-2^k, 2^k]| is two binary searches.
func radiusSorted(rng *xrand.RNG, xs []int64, eps, beta float64) (int64, error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, err
	}
	if len(xs) == 0 {
		return 0, dp.ErrEmptyData
	}
	n := float64(len(xs))

	threshold := n - dp.SVTLemma26Slack(eps, beta)
	idx, err := dp.SVT(rng, threshold, eps, func(i int) (float64, bool) {
		// Query 1 is Count(D, 0); query i >= 2 is Count(D, 2^(i-2)).
		// Every |v| <= maxAbs, so bounds past maxAbs count everything.
		bound := int64(0)
		if i >= 2 {
			bound = maxAbs
			if shift := uint(i - 2); shift < 61 {
				bound = int64(1) << shift
			}
		}
		first, _ := slices.BinarySearch(xs, -bound)
		end, _ := slices.BinarySearch(xs, bound+1)
		return float64(end - first), true
	}, maxRadiusQueries)
	if err != nil {
		// The cap is unreachable except under extreme noise; fall back to
		// the largest representable radius (a data-independent constant).
		return maxAbs, nil
	}
	if idx == 1 {
		return 0, nil
	}
	shift := uint(idx - 2)
	if shift >= 62 {
		return maxAbs, nil
	}
	return int64(1) << shift, nil
}

// Range is Algorithm 4 (InfiniteDomainRange): an eps-DP range R̃(D) with
// |R̃(D)| <= 4·γ(D) missing only O(log(log(γ(D))/beta)/eps) elements of D,
// with probability >= 1-beta, provided n > (c1/eps)·log(rad(D)/beta)
// (Theorem 3.2). The budget splits ε/8 + ε/8 + 3ε/4 across the radius,
// median, and recentred-radius steps, per the paper. Input order does not
// matter; sorted input sorts in linear time.
func Range(rng *xrand.RNG, data []int64, eps, beta float64) (lo, hi int64, err error) {
	return rangeSorted(rng, sortedClamped(data), eps, beta)
}

// rangeSorted is Range over clamped data in increasing order.
func rangeSorted(rng *xrand.RNG, xs []int64, eps, beta float64) (lo, hi int64, err error) {
	if err := dp.CheckEpsilon(eps); err != nil {
		return 0, 0, err
	}
	if err := dp.CheckBeta(beta); err != nil {
		return 0, 0, err
	}
	if len(xs) == 0 {
		return 0, 0, dp.ErrEmptyData
	}

	rad1, err := radiusSorted(rng, xs, eps/8, beta/3)
	if err != nil {
		return 0, 0, err
	}

	// Clip into [-rad1, rad1] and take a private median over that finite
	// domain (Algorithm 4 lines 2-3). FiniteDomainQuantile clips internally.
	med, err := dp.FiniteDomainQuantile(rng, xs, len(xs)/2, -rad1, rad1, eps/8, beta/3)
	if err != nil {
		return 0, 0, err
	}

	// Recentre (|med| <= rad1 <= maxAbs and |x| <= maxAbs, so the
	// subtraction stays within int64), clamp as Radius would, and
	// re-estimate the radius. Both maps are monotone, so the shifted data
	// stays sorted.
	shifted := make([]int64, len(xs))
	for i, v := range xs {
		shifted[i] = clampInt64(v - med)
	}
	rad2, err := radiusSorted(rng, shifted, 3*eps/4, beta/3)
	if err != nil {
		return 0, 0, err
	}

	// [med - rad2, med + rad2], saturating.
	lo = saturatingSub(med, rad2)
	hi = saturatingAdd(med, rad2)
	return lo, hi, nil
}

func saturatingAdd(a, b int64) int64 {
	s := a + b
	if b > 0 && s < a {
		return math.MaxInt64
	}
	if b < 0 && s > a {
		return math.MinInt64
	}
	return s
}

func saturatingSub(a, b int64) int64 {
	if b == math.MinInt64 {
		return saturatingAdd(a, math.MaxInt64)
	}
	return saturatingAdd(a, -b)
}

// Mean is Algorithm 5 (InfiniteDomainMean): an eps-DP estimate of the
// empirical mean over Z with error O(γ(D)/(εn)·log(log(γ(D))/β)) w.p.
// >= 1-beta (Theorem 3.3). Budget: 4ε/5 for the range, ε/5 for the
// clipped-mean Laplace noise (scale 5|R̃|/(εn), as in the paper).
func Mean(rng *xrand.RNG, data []int64, eps, beta float64) (float64, error) {
	lo, hi, err := Range(rng, data, 4*eps/5, beta/2)
	if err != nil {
		return 0, err
	}
	fs := make([]float64, len(data))
	for i, v := range data {
		fs[i] = float64(clampInt64(v))
	}
	return dp.ClippedMean(rng, fs, float64(lo), float64(hi), eps/5)
}

// Quantile is Algorithm 6 (InfiniteDomainQuantile): an eps-DP estimate of
// the tau-th order statistic (1-based) over Z with rank error
// O(log(γ(D)/β)/ε) w.p. >= 1-beta (Theorem 3.5). Budget: 4ε/5 range +
// ε/5 finite-domain quantile. Input order does not matter; sorted input
// sorts in linear time.
func Quantile(rng *xrand.RNG, data []int64, tau int, eps, beta float64) (int64, error) {
	xs := sortedClamped(data)
	lo, hi, err := rangeSorted(rng, xs, 4*eps/5, beta/2)
	if err != nil {
		return 0, err
	}
	return dp.FiniteDomainQuantile(rng, xs, tau, lo, hi, eps/5, beta/2)
}
