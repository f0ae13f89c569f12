/**
 * @file
 * Unit tests for the stats library.
 */

#include <gtest/gtest.h>

#include "stats/stats.hh"
#include "util/random.hh"

namespace locsim {
namespace stats {
namespace {

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.variance(), 0.0);
    EXPECT_EQ(acc.min(), 0.0);
    EXPECT_EQ(acc.max(), 0.0);
}

TEST(Accumulator, MeanVarianceMinMax)
{
    Accumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_NEAR(acc.mean(), 5.0, 1e-12);
    // Population variance is 4; sample variance is 32/7.
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(acc.min(), 2.0);
    EXPECT_EQ(acc.max(), 9.0);
    EXPECT_NEAR(acc.sum(), 40.0, 1e-12);
}

TEST(Accumulator, StableForModerateOffsets)
{
    // Exact sums keep full precision for integer-valued samples up to
    // ~2^26 (sum of squares stays below 2^53). Latencies, hop counts,
    // and flit counts all live far below that.
    Accumulator acc;
    const double offset = 1e6;
    for (int i = 0; i < 1000; ++i)
        acc.add(offset + (i % 2 ? 1.0 : -1.0));
    EXPECT_NEAR(acc.mean(), offset, 1e-3);
    // Sample variance of alternating +/-1 is n/(n-1).
    EXPECT_NEAR(acc.variance(), 1000.0 / 999.0, 1e-6);
}

TEST(Accumulator, MergeMatchesSequential)
{
    util::Rng rng(5);
    Accumulator whole, left, right;
    for (int i = 0; i < 500; ++i) {
        const double v = rng.nextDouble() * 100.0;
        whole.add(v);
        (i < 250 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
    EXPECT_EQ(left.min(), whole.min());
    EXPECT_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeIsBitIdenticalForIntegerSamples)
{
    // The sharded engine splits one statistics stream across shards
    // and merges; for the integer-valued samples the simulator emits,
    // every grouping must reproduce the sequential result bit-for-bit.
    util::Rng rng(17);
    std::vector<double> samples;
    for (int i = 0; i < 4096; ++i)
        samples.push_back(
            static_cast<double>(rng.next() % 100000));

    Accumulator sequential;
    for (double v : samples)
        sequential.add(v);

    for (int shards : {2, 3, 4, 7}) {
        std::vector<Accumulator> parts(shards);
        for (std::size_t i = 0; i < samples.size(); ++i)
            parts[i % shards].add(samples[i]);
        Accumulator merged;
        for (const auto &p : parts)
            merged.merge(p);
        EXPECT_EQ(merged.count(), sequential.count());
        // Bit-identical, not merely close.
        EXPECT_EQ(merged.mean(), sequential.mean());
        EXPECT_EQ(merged.sum(), sequential.sum());
        EXPECT_EQ(merged.variance(), sequential.variance());
        EXPECT_EQ(merged.min(), sequential.min());
        EXPECT_EQ(merged.max(), sequential.max());
    }
}

TEST(Histogram, MergeMatchesSequential)
{
    Histogram whole(0.0, 100.0, 10), left(0.0, 100.0, 10),
        right(0.0, 100.0, 10);
    util::Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
        const double v =
            static_cast<double>(rng.next() % 120) - 5.0;
        whole.add(v);
        (i % 2 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.total(), whole.total());
    EXPECT_EQ(left.underflow(), whole.underflow());
    EXPECT_EQ(left.overflow(), whole.overflow());
    for (std::size_t i = 0; i < whole.buckets(); ++i)
        EXPECT_EQ(left.bucketCount(i), whole.bucketCount(i));
    EXPECT_EQ(left.quantile(0.5), whole.quantile(0.5));
}

TEST(Accumulator, MergeWithEmptySides)
{
    Accumulator a, b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.mean(), 3.0);
}

TEST(Histogram, BucketsAndOutliers)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0);  // underflow
    h.add(0.0);   // bucket 0
    h.add(1.9);   // bucket 0
    h.add(2.0);   // bucket 1
    h.add(9.99);  // bucket 4
    h.add(10.0);  // overflow
    h.add(50.0);  // overflow
    EXPECT_EQ(h.total(), 7u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_DOUBLE_EQ(h.bucketLo(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketHi(1), 4.0);
}

TEST(Histogram, QuantileOfUniformData)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i) + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1.5);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h(0.0, 1.0, 2);
    h.add(0.5);
    h.add(5.0);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
}

TEST(Histogram, QuantileOfEmptyHistogramIsLo)
{
    Histogram h(5.0, 10.0, 4);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(Histogram, QuantileWithSingleBucket)
{
    Histogram h(0.0, 10.0, 1);
    for (int i = 0; i < 4; ++i)
        h.add(5.0);
    // All mass in one bucket: quantiles interpolate across [0, 10).
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(Histogram, QuantileWithUnderflowMass)
{
    Histogram h(10.0, 20.0, 10);
    for (int i = 0; i < 9; ++i)
        h.add(-1.0); // underflow
    h.add(15.0);
    // 90% of the mass sits below lo; low/median quantiles clamp to lo.
    EXPECT_DOUBLE_EQ(h.quantile(0.1), 10.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
    EXPECT_GT(h.quantile(0.99), 10.0);
    EXPECT_EQ(h.underflow(), 9u);
}

TEST(Histogram, QuantileWithOverflowMass)
{
    Histogram h(0.0, 10.0, 10);
    h.add(5.0);
    for (int i = 0; i < 9; ++i)
        h.add(100.0); // overflow
    // The top 90% of the mass is above hi; high quantiles report hi.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
    EXPECT_LT(h.quantile(0.05), 10.0);
    EXPECT_EQ(h.overflow(), 9u);
}

TEST(Histogram, QuantileOutOfRangeDies)
{
    Histogram h(0.0, 1.0, 2);
    h.add(0.5);
    EXPECT_DEATH(h.quantile(-0.1), "quantile");
    EXPECT_DEATH(h.quantile(1.5), "quantile");
}

} // namespace
} // namespace stats
} // namespace locsim
