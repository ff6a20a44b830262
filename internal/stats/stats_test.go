package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.P50() != 0 || h.P99() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should return zeros")
	}
}

func TestHistogramSingle(t *testing.T) {
	var h Histogram
	h.Record(1234)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1234 || h.Max() != 1234 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if h.P50() != 1234 || h.P99() != 1234 {
		t.Fatalf("quantiles of single value: p50=%d p99=%d", h.P50(), h.P99())
	}
	if h.Mean() != 1234 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatalf("negative observation should clamp to 0, got %d", h.Min())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Compare against exact quantiles on a lognormal-ish distribution.
	rng := rand.New(rand.NewSource(5))
	var h Histogram
	var exact []int64
	for i := 0; i < 200000; i++ {
		v := int64(math.Exp(rng.NormFloat64()*1.2 + 10)) // ~22k mean, heavy tail
		h.Record(v)
		exact = append(exact, v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))-1]
		got := h.Quantile(q)
		rel := math.Abs(float64(got-want)) / float64(want)
		if rel > 0.02 {
			t.Errorf("q=%v: got %d want %d (rel err %.3f)", q, got, want, rel)
		}
	}
}

// TestHistogramQuantilePrecision is the regression test for the
// bucketOf exponent off-by-one: values must normalize into
// [2^subBucketBits, 2^(subBucketBits+1)) sub-buckets, bounding relative
// quantile error to ~1/2^subBucketBits (0.8%) against exact sorted
// samples. The buggy exponent halved the resolution to ~1.6%.
func TestHistogramQuantilePrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dist := range []struct {
		name string
		gen  func() int64
	}{
		{"lognormal", func() int64 { return int64(math.Exp(rng.NormFloat64()*1.2 + 10)) }},
		{"uniform-wide", func() int64 { return rng.Int63n(1 << 40) }},
		{"bimodal", func() int64 {
			if rng.Intn(10) == 0 {
				return 1<<20 + rng.Int63n(1<<20)
			}
			return 1000 + rng.Int63n(1000)
		}},
	} {
		t.Run(dist.name, func(t *testing.T) {
			var h Histogram
			exact := make([]int64, 0, 100000)
			for i := 0; i < 100000; i++ {
				v := dist.gen()
				h.Record(v)
				exact = append(exact, v)
			}
			sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
				want := exact[int(math.Ceil(q*float64(len(exact))))-1]
				got := h.Quantile(q)
				rel := math.Abs(float64(got-want)) / float64(want)
				if rel > 1.0/float64(int64(1)<<subBucketBits) {
					t.Errorf("q=%v: got %d want %d (rel err %.4f > %.4f)",
						q, got, want, rel, 1.0/float64(int64(1)<<subBucketBits))
				}
			}
		})
	}
}

// TestBucketKeyOrdered pins the property the quantile cache sorts by:
// bucket keys compare in the same order as the values they cover.
func TestBucketKeyOrdered(t *testing.T) {
	f := func(a, b int64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		if a > b {
			a, b = b, a
		}
		return bucketOf(a) <= bucketOf(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileCacheInvalidation: quantiles stay correct when records,
// merges and resets interleave with quantile reads.
func TestQuantileCacheInvalidation(t *testing.T) {
	var h Histogram
	h.Record(100)
	if h.P50() != 100 {
		t.Fatalf("p50 = %d, want 100", h.P50())
	}
	h.Record(1_000_000) // must invalidate the cached bucket list
	if got := h.Quantile(1); got != 1_000_000 {
		t.Fatalf("after Record: p100 = %d, want 1000000", got)
	}
	var other Histogram
	other.Record(5_000_000)
	h.Merge(&other)
	if got := h.Quantile(1); got != 5_000_000 {
		t.Fatalf("after Merge: p100 = %d, want 5000000", got)
	}
	h.Reset()
	if h.P99() != 0 {
		t.Fatal("after Reset: quantile should be 0")
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Count() != 0 || r.P99() != 0 {
		t.Fatal("empty ratio should be zeros")
	}
	for i := 0; i < 99; i++ {
		r.Observe(1.0)
	}
	r.Observe(250.0)
	r.Observe(-3) // clamps to 0
	if r.Count() != 101 {
		t.Fatalf("count = %d", r.Count())
	}
	if p50 := r.P50(); math.Abs(p50-1.0) > 0.01 {
		t.Fatalf("p50 = %v, want ~1.0", p50)
	}
	if p99 := r.Quantile(0.999); math.Abs(p99-250)/250 > 0.01 {
		t.Fatalf("p99.9 = %v, want ~250", p99)
	}
	if max := r.Max(); max != 250 {
		t.Fatalf("max = %v, want 250", max)
	}
	var o Ratio
	o.Observe(500)
	r.Merge(&o)
	r.Merge(nil) // must not panic
	if max := r.Max(); max != 500 {
		t.Fatalf("merged max = %v, want 500", max)
	}
	r.Reset()
	if r.Count() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := int64(1); i <= 100; i++ {
		a.Record(i)
	}
	for i := int64(101); i <= 200; i++ {
		b.Record(i)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 1 || a.Max() != 200 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	a.Merge(nil) // must not panic
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestHistogramRecordN(t *testing.T) {
	var h Histogram
	h.RecordN(10, 5)
	h.RecordN(10, 0) // no-op
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Mean() != 10 {
		t.Fatalf("mean = %v, want 10", h.Mean())
	}
}

func TestBucketMonotonic(t *testing.T) {
	prev := uint32(0)
	for v := int64(0); v < 1<<22; v += 97 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucket not monotonic at %d", v)
		}
		prev = b
	}
}

// Property: a bucket's midpoint is within ~1% of any value mapping to it.
func TestBucketRelativeError(t *testing.T) {
	f := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		v %= 1 << 50
		mid := bucketMid(bucketOf(v))
		if v < 1<<subBucketBits {
			return mid >= 0 && mid < 1<<subBucketBits+1
		}
		rel := math.Abs(float64(mid-v)) / float64(v)
		return rel <= 1.0/float64(int64(1)<<subBucketBits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotone(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vals {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			x := h.Quantile(q)
			if x < prev || x < h.Min() || x > h.Max() {
				return false
			}
			prev = x
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(10, 1000)
	c.Add(5, 500)
	if c.N != 15 || c.Bytes != 1500 {
		t.Fatalf("counter = %+v", c)
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Record(100)
	if h.String() == "" {
		t.Fatal("empty summary")
	}
}

// BenchmarkQuantile measures the hot reporting path: a p50+p99 pair on
// a populated histogram. With the cached bucket list this is two cheap
// scans and zero allocations per pair (the pre-cache version re-sorted
// and re-allocated on every call).
func BenchmarkQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	for i := 0; i < 100000; i++ {
		h.Record(int64(math.Exp(rng.NormFloat64()*1.2 + 10)))
	}
	h.P50() // warm the cache once, as a reporting loop would
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.P50() > h.P99() {
			b.Fatal("quantiles inverted")
		}
	}
}

// BenchmarkQuantileInvalidated measures the worst case: every quantile
// pair preceded by a record, so the cache rebuilds each iteration.
func BenchmarkQuantileInvalidated(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	for i := 0; i < 100000; i++ {
		h.Record(int64(math.Exp(rng.NormFloat64()*1.2 + 10)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%100000 + 1))
		if h.P50() > h.P99() {
			b.Fatal("quantiles inverted")
		}
	}
}
