package dp

import (
	"errors"
	"math"
	"slices"

	"repro/internal/xrand"
)

// ErrEmptyDomain reports a quantile domain with lo > hi.
var ErrEmptyDomain = errors.New("dp: empty quantile domain")

// FiniteDomainQuantile is Algorithm 2: the inverse sensitivity mechanism
// (exponential mechanism with the path-length score, §2.5) releasing the
// tau-th order statistic (1-based) of integer data over the finite ordered
// domain [lo, hi]. With probability >= 1-beta the result has rank error
// at most (4/eps)·log(|X|/beta) (Lemma 2.8).
//
// The target rank is clamped away from the extremes per Algorithm 2 lines
// 1-7; data values outside the domain are clipped into it (a deterministic
// per-record map that preserves neighboring relations).
//
// The domain may be astronomically large (e.g. all of [−2^61, 2^61]): the
// mechanism groups it into maximal constant-score segments — O(n) of them —
// and samples with the Gumbel-max trick in log space, so the run time is
// O(n log n) independent of |X|.
//
// Only the multiset of data matters, so input order does not change the
// result; data is never modified. Clipping preserves order, so on sorted
// input the sort finishes in one linear pass and the call is O(n).
func FiniteDomainQuantile(rng *xrand.RNG, data []int64, tau int, lo, hi int64, eps, beta float64) (int64, error) {
	if err := CheckEpsilon(eps); err != nil {
		return 0, err
	}
	if err := CheckBeta(beta); err != nil {
		return 0, err
	}
	if lo > hi {
		return 0, ErrEmptyDomain
	}
	n := len(data)
	if n == 0 {
		return 0, ErrEmptyData
	}

	// Domain size |X| = hi - lo + 1, exact in uint64, logged in float64.
	span := uint64(hi) - uint64(lo) // two's-complement difference is exact
	logDomain := math.Log(float64(span) + 1)

	// Algorithm 2 lines 1-7: clamp tau away from the extremes.
	slack := 2 / eps * (logDomain + math.Log(1/beta))
	tauP := float64(tau)
	if tauP <= slack {
		tauP = slack
	} else if tauP >= float64(n)-slack {
		tauP = float64(n) - slack
	}
	// Keep the target a valid rank even when n is too small for the lemma.
	tauPrime := math.Min(math.Max(tauP, 1), float64(n))

	xs := make([]int64, n)
	for i, v := range data {
		switch {
		case v < lo:
			xs[i] = lo
		case v > hi:
			xs[i] = hi
		default:
			xs[i] = v
		}
	}
	slices.Sort(xs)

	// Enumerate maximal segments of constant score. The score of a point y
	// is -len(y) with len(y) = max(0, tau' - rank_le(y), rank_lt(y) - tau'),
	// the number of records that must change for y to become the tau'-th
	// order statistic (§2.5).
	type segment struct {
		a, b int64 // inclusive
		lw   float64
	}
	segs := make([]segment, 0, 2*n+1)
	halfEps := eps / 2
	addSeg := func(a, b int64, rankLT, rankLE int) {
		if a > b {
			return
		}
		length := math.Max(0, math.Max(tauPrime-float64(rankLE), float64(rankLT)-tauPrime))
		lc := 0.0 // log of a singleton's count: exactly log 1
		if a != b {
			lc = math.Log(float64(uint64(b)-uint64(a)) + 1)
		}
		segs = append(segs, segment{a: a, b: b, lw: lc - halfEps*length})
	}

	prev := lo       // next uncovered domain point
	covered := false // whether the segment list already reaches hi
	for i := 0; i < n; {
		v := xs[i]
		j := i
		for j < n && xs[j] == v {
			j++
		}
		// Gap strictly before v: rank_lt = rank_le = i throughout.
		if v > prev {
			addSeg(prev, v-1, i, i)
		}
		// The data value itself: rank_lt = i, rank_le = j.
		addSeg(v, v, i, j)
		if v == hi {
			covered = true
			break
		}
		prev = v + 1
		i = j
	}
	if !covered && prev <= hi {
		// Trailing gap above the largest data value: all n records below.
		addSeg(prev, hi, n, n)
	}

	// Gumbel-max sampling over segments == exponential mechanism over X.
	best := -1
	bestKey := math.Inf(-1)
	for k := range segs {
		key := segs[k].lw + rng.Gumbel()
		if key > bestKey {
			bestKey = key
			best = k
		}
	}
	if best < 0 {
		return 0, ErrEmptyDomain
	}
	s := segs[best]
	return rng.Int64Range(s.a, s.b), nil
}

// QuantileRankSlack returns the (4/eps)·log(|X|/beta) rank-error bound of
// Lemma 2.8, with |X| passed as a float64 domain size.
func QuantileRankSlack(domainSize, eps, beta float64) float64 {
	return 4 / eps * math.Log(domainSize/beta)
}
