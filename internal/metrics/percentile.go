// Package metrics provides the measurement substrate of the reproduction:
// tail-latency percentile estimation (exact and streaming), sliding
// measurement windows, and IPC accounting. It stands in for the performance
// counters and the Tailbench latency harness of the paper's testbed.
package metrics

import "math"

// Percentile returns the p-quantile (p in [0,1]) of the samples using linear
// interpolation between closest ranks (the same convention as numpy's
// default). It returns NaN for an empty slice. The input is not modified.
//
// The quantile is found by selection rather than a full sort: the two
// closest-rank order statistics are exact sample values whichever algorithm
// surfaces them, so the result is bit-identical to sorting first, at O(n)
// instead of O(n log n) — run-level latency streams reach tens of thousands
// of samples.
func Percentile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return samples[0]
	}
	work := append([]float64(nil), samples...)
	return PercentileInPlace(work, p)
}

// PercentileInPlace is Percentile over a scratch slice the caller allows to
// be reordered (it is partially partitioned, not sorted, on return).
func PercentileInPlace(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 || p <= 0 {
		m := xs[0]
		for _, v := range xs[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	if p >= 1 {
		return Max(xs)
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	selectFloat(xs, lo)
	v := xs[lo]
	if lo == hi {
		return v
	}
	// The next order statistic is the minimum of the suffix the selection
	// left above position lo.
	w := xs[lo+1]
	for _, x := range xs[lo+2:] {
		if x < w {
			w = x
		}
	}
	frac := rank - float64(lo)
	return v*(1-frac) + w*frac
}

// OrderStat returns the k-th smallest element of xs (k counted from 0),
// reordering xs in place: on return xs[k] holds it, everything before it is
// no larger and everything after it no smaller. The k-th order statistic is
// one value whichever algorithm surfaces it, so the result equals sorting
// a copy and indexing it at k. It panics unless 0 <= k < len(xs).
func OrderStat(xs []float64, k int) float64 {
	selectFloat(xs, k)
	return xs[k]
}

// selectFloat partially sorts xs so that xs[k] holds the k-th smallest
// element, everything before it is no larger and everything after it no
// smaller. It is Floyd and Rivest's SELECT (CACM 18(3), 1975): on ranges
// longer than selectSampleMin it first selects recursively inside a small
// sample window around k, so the pivot it partitions on is already close
// to the k-th value and each pass discards nearly the whole range — about
// n + min(k, n-k) comparisons instead of quickselect's ~2n–3n.
func selectFloat(xs []float64, k int) {
	floydRivest(xs, 0, len(xs)-1, k)
}

// selectSampleMin is the range length above which floydRivest narrows the
// pivot by sampling; below it a plain partition on xs[k] is cheaper. 600
// is the constant of the original algorithm.
const selectSampleMin = 600

// floydRivest selects the k-th smallest element of xs[left:right+1] into
// xs[k] (see selectFloat).
func floydRivest(xs []float64, left, right, k int) {
	for right > left {
		if right-left > selectSampleMin {
			// Select inside a window of about n^(2/3) elements whose
			// expected rank range straddles k; its k-th element then
			// pivots the partition below.
			n := float64(right - left + 1)
			i := float64(k - left + 1)
			z := math.Log(n)
			s := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*s*(n-s)/n)
			if i < n/2 {
				sd = -sd
			}
			newLeft := max(left, int(float64(k)-i*s/n+sd))
			newRight := min(right, int(float64(k)+(n-i)*s/n+sd))
			floydRivest(xs, newLeft, newRight, k)
		}
		t := xs[k]
		i, j := left, right
		xs[left], xs[k] = xs[k], xs[left]
		if xs[right] > t {
			xs[right], xs[left] = xs[left], xs[right]
		}
		for i < j {
			xs[i], xs[j] = xs[j], xs[i]
			i++
			j--
			for xs[i] < t {
				i++
			}
			for xs[j] > t {
				j--
			}
		}
		// The pivot value t now sits at left (when xs[right] exceeded it)
		// or at right, and xs[left] <= t either way; so "xs[left] is not
		// below t" is the original algorithm's "xs[left] = t" test.
		if !(xs[left] < t) {
			xs[left], xs[j] = xs[j], xs[left]
		} else {
			j++
			xs[j], xs[right] = xs[right], xs[j]
		}
		if j <= k {
			left = j + 1
		}
		if k <= j {
			right = j - 1
		}
	}
}

// PercentileSorted is like Percentile but requires the input to be sorted
// ascending and does not copy it.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// P95 returns the 95th-percentile of the samples; the paper uses p95 as its
// tail-latency metric throughout.
func P95(samples []float64) float64 { return Percentile(samples, 0.95) }

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Max returns the maximum, or NaN for an empty slice.
func Max(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	m := samples[0]
	for _, v := range samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
