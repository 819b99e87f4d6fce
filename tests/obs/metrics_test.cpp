// Tests for FixedHistogram::quantile: bucket-edge exactness, linear
// interpolation inside buckets, overflow-bucket behavior, clamping, and
// monotonicity.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hyperpath {
namespace {

using obs::FixedHistogram;

TEST(HistogramQuantile, EmptyHistogramYieldsZero) {
  FixedHistogram h({1, 2, 4});
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
}

TEST(HistogramQuantile, QIsClampedToUnitInterval) {
  FixedHistogram h({10});
  h.observe(5);
  EXPECT_EQ(h.quantile(-3.0), h.quantile(0.0));
  EXPECT_EQ(h.quantile(7.0), h.quantile(1.0));
}

TEST(HistogramQuantile, ExactAtBucketEdges) {
  // 4 samples in (0,1], 4 in (1,2]: rank q=0.5 lands exactly on the first
  // bucket's cumulative count, so the estimate is its upper bound.
  FixedHistogram h({1, 2, 4});
  for (int i = 0; i < 4; ++i) h.observe(1.0);
  for (int i = 0; i < 4; ++i) h.observe(2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(HistogramQuantile, InterpolatesLinearlyWithinABucket) {
  // 10 samples, all in (0,10] with max landing on the bound: quantile(q)
  // interpolates to 10q.
  FixedHistogram h({10});
  for (int i = 1; i <= 10; ++i) h.observe(i);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 9.9);
}

TEST(HistogramQuantile, OverflowBucketInterpolatesUpToMax) {
  FixedHistogram h({1, 2});
  h.observe(0.5);
  h.observe(100);  // overflow: bucket (2, max()]
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  // Halfway into the overflow bucket's rank range sits between the last
  // bound and max, never beyond max.
  const double q75 = h.quantile(0.75);
  EXPECT_GE(q75, 2.0);
  EXPECT_LE(q75, 100.0);
}

TEST(HistogramQuantile, NeverExceedsMax) {
  // The only sample sits well below its bucket's upper bound; the estimate
  // is capped at max() rather than interpolating past the real data.
  FixedHistogram h({1024});
  h.observe(3);
  EXPECT_LE(h.quantile(1.0), 3.0);
  EXPECT_LE(h.quantile(0.999), 3.0);
}

TEST(HistogramQuantile, MonotoneInQ) {
  FixedHistogram h = FixedHistogram::exponential();
  for (int i = 1; i <= 1000; ++i) h.observe(i % 97);
  double prev = -1;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(HistogramQuantile, SingleSample) {
  FixedHistogram h({1, 2, 4});
  h.observe(3);
  // One sample in (2,4]: every q interpolates inside that bucket, capped
  // by max() == 3.
  EXPECT_GT(h.quantile(0.5), 2.0);
  EXPECT_LE(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(HistogramMerge, EquivalentToObservingBothMultisets) {
  // The campaign fold's contract: per-chunk histograms built from the
  // same template, merged in chunk order, must equal one histogram that
  // observed every sample directly — counts, count, sum, max and every
  // quantile.
  FixedHistogram whole = FixedHistogram::exponential(12);
  FixedHistogram a = FixedHistogram::exponential(12);
  FixedHistogram b = FixedHistogram::exponential(12);
  FixedHistogram c = FixedHistogram::exponential(12);
  for (int i = 1; i <= 300; ++i) {
    const double v = static_cast<double>((i * 37) % 4096);
    whole.observe(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).observe(v);
  }
  a.merge(b);
  a.merge(c);
  EXPECT_EQ(a, whole);
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), whole.quantile(q)) << "q=" << q;
  }
}

TEST(HistogramMerge, EmptyAdoptsOtherShape) {
  FixedHistogram empty;
  FixedHistogram h({1, 2, 4});
  h.observe(3);
  empty.merge(h);
  EXPECT_EQ(empty, h);
}

TEST(HistogramMerge, MergingEmptyIsANoop) {
  FixedHistogram h({1, 2, 4});
  h.observe(3);
  const FixedHistogram before = h;
  h.merge(FixedHistogram{});
  EXPECT_EQ(h, before);
  // An empty histogram *with* matching bounds is also a no-op.
  h.merge(FixedHistogram({1, 2, 4}));
  EXPECT_EQ(h, before);
}

TEST(HistogramMerge, BatchedObserveEqualsRepeatedObserve) {
  // The step loop folds each run of deliveries sharing a latency into one
  // observe(v, n); for integer-valued samples that is exactly n calls of
  // observe(v) — counts, count, sum and max.  n = 0 observes nothing.
  FixedHistogram batched = FixedHistogram::exponential(12);
  FixedHistogram repeated = FixedHistogram::exponential(12);
  for (int i = 0; i < 200; ++i) {
    const double v = static_cast<double>((i * 37) % 5000);  // some overflow
    const std::uint64_t n = static_cast<std::uint64_t>((i * 13) % 7);
    batched.observe(v, n);
    for (std::uint64_t k = 0; k < n; ++k) repeated.observe(v);
  }
  EXPECT_EQ(batched, repeated);
  EXPECT_GT(batched.count(), 0u);

  FixedHistogram empty;
  empty.observe(3, 0);
  EXPECT_EQ(empty, FixedHistogram{});
  FixedHistogram one;
  FixedHistogram three;
  one.observe(3, 3);
  for (int k = 0; k < 3; ++k) three.observe(3);
  EXPECT_EQ(one, three);
}

TEST(HistogramMerge, AccumulatesCountSumAndMax) {
  FixedHistogram a({10, 100});
  FixedHistogram b({10, 100});
  a.observe(5);
  a.observe(50);
  b.observe(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 555.0);
  EXPECT_DOUBLE_EQ(a.max(), 500.0);
  EXPECT_EQ(a.counts(), (std::vector<std::uint64_t>{1, 1, 1}));
}

}  // namespace
}  // namespace hyperpath
