// Package stats provides the measurement primitives used by the benchmark
// harness: a log-linear latency histogram with accurate tail percentiles
// (HDR-histogram style), simple counters, and summary helpers.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"smt/internal/idmap"
)

// subBucketBits controls histogram resolution: each power-of-two range is
// split into 2^subBucketBits linear sub-buckets, bounding relative error to
// about 1/2^subBucketBits (~0.8 %).
const subBucketBits = 7

// Histogram records non-negative int64 observations (latencies in
// nanoseconds, sizes in bytes, ...) in log-linear buckets. The zero value
// is ready to use.
type Histogram struct {
	counts idmap.Map[uint64] // by bucketOf key
	n      uint64
	sum    float64
	min    int64
	max    int64
	// sorted caches the ascending bucket list for Quantile; nil means
	// stale (any Record/Merge/Reset invalidates it).
	sorted []bucketCount
}

type bucketCount struct {
	b uint32
	c uint64
}

func bucketOf(v int64) uint32 {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	exp := 0
	if u >= 1<<subBucketBits {
		exp = 63 - subBucketBits - bits.LeadingZeros64(u)
	}
	sub := u >> uint(exp) // in [2^subBucketBits, 2^(subBucketBits+1)) for exp>0
	return uint32(exp)<<16 | uint32(sub)
}

// bucketMid returns a representative value for the bucket (midpoint).
func bucketMid(b uint32) int64 {
	exp := uint(b >> 16)
	sub := uint64(b & 0xffff)
	lo := sub << exp
	hi := lo + (uint64(1)<<exp - 1)
	return int64((lo + hi) / 2)
}

// Record adds one observation.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds count identical observations.
func (h *Histogram) RecordN(v int64, count uint64) {
	if count == 0 {
		return
	}
	if h.n == 0 {
		h.min = math.MaxInt64
		h.max = math.MinInt64
	}
	if v < 0 {
		v = 0
	}
	*h.counts.Ref(uint64(bucketOf(v))) += count
	h.sorted = nil
	h.n += count
	h.sum += float64(v) * float64(count)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.n }

// Mean reports the arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min reports the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// orderedBuckets returns the bucket list in ascending value order,
// (re)building the cache if a Record/Merge/Reset invalidated it. Bucket
// keys (exp<<16 | sub) compare in the same order as the values they
// cover, so an integer sort on the key suffices.
func (h *Histogram) orderedBuckets() []bucketCount {
	if h.sorted == nil {
		h.sorted = make([]bucketCount, 0, h.counts.Len())
		for b, c := range h.counts.All() {
			h.sorted = append(h.sorted, bucketCount{uint32(b), c})
		}
		sort.Slice(h.sorted, func(i, j int) bool { return h.sorted[i].b < h.sorted[j].b })
	}
	return h.sorted
}

// Quantile returns the value at quantile q in [0,1] with the histogram's
// bucket resolution. Exact recorded min/max are returned at the extremes.
// The sorted bucket list is cached across calls, so a p50+p99 pair in a
// reporting loop sorts (and allocates) at most once per recording burst.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, e := range h.orderedBuckets() {
		cum += e.c
		if cum >= rank {
			v := bucketMid(e.b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P50 is shorthand for Quantile(0.50).
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }

// P99 is shorthand for Quantile(0.99).
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 {
		h.min = math.MaxInt64
		h.max = math.MinInt64
	}
	for b, c := range other.counts.All() {
		*h.counts.Ref(b) += c
	}
	h.sorted = nil
	h.n += other.n
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears all recorded state.
func (h *Histogram) Reset() { *h = Histogram{} }

// String summarizes the distribution for debug output.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d min=%d max=%d",
		h.n, h.Mean(), h.P50(), h.P99(), h.Min(), h.Max())
}

// RatioScale is the fixed-point scale Ratio stores dimensionless ratios
// at: 1e4 keeps four decimal digits before the histogram's own ~0.8%
// log-linear resolution kicks in.
const RatioScale = 1e4

// Ratio records non-negative dimensionless ratios — the slowdown metric
// of the load-sweep evaluation (observed completion time divided by the
// unloaded ideal for that message size) — as fixed-point values in a
// log-linear Histogram. The zero value is ready to use.
type Ratio struct{ hist Histogram }

// Observe records one ratio.
func (r *Ratio) Observe(x float64) {
	if x < 0 {
		x = 0
	}
	r.hist.Record(int64(x*RatioScale + 0.5))
}

// Count reports the number of observed ratios.
func (r *Ratio) Count() uint64 { return r.hist.Count() }

// Max reports the largest observed ratio (0 when empty).
func (r *Ratio) Max() float64 { return float64(r.hist.Max()) / RatioScale }

// Quantile returns the ratio at quantile q in [0,1].
func (r *Ratio) Quantile(q float64) float64 {
	return float64(r.hist.Quantile(q)) / RatioScale
}

// P50 is shorthand for Quantile(0.50).
func (r *Ratio) P50() float64 { return r.Quantile(0.50) }

// P99 is shorthand for Quantile(0.99).
func (r *Ratio) P99() float64 { return r.Quantile(0.99) }

// Merge folds other into r.
func (r *Ratio) Merge(other *Ratio) {
	if other != nil {
		r.hist.Merge(&other.hist)
	}
}

// Reset clears all recorded state.
func (r *Ratio) Reset() { r.hist.Reset() }

// Counter is a monotonically accumulating event counter.
type Counter struct {
	N     uint64
	Bytes uint64
}

// Add records n events carrying bytes payload bytes in total.
func (c *Counter) Add(n, bytes uint64) {
	c.N += n
	c.Bytes += bytes
}
