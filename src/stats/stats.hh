/**
 * @file
 * Statistics primitives for the simulator and the measurement harness:
 * counters, streaming mean/variance accumulators and fixed-bucket
 * histograms.
 *
 * All statistics are deliberately simple value types; simulated
 * components own their stats directly.
 */

#ifndef LOCSIM_STATS_STATS_HH_
#define LOCSIM_STATS_STATS_HH_

#include <cstdint>
#include <limits>
#include <vector>

#include "util/serialize.hh"

namespace locsim {
namespace stats {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t delta = 1) { value_ += delta; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    void saveState(util::Serializer &s) const { s.put(value_); }
    void loadState(util::Deserializer &d)
    {
        value_ = d.get<std::uint64_t>();
    }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Streaming accumulator for mean/variance/min/max over exact running
 * sums (count, sum, sum of squares).
 *
 * The simulator's samples are integer-valued doubles far below 2^53,
 * so the running sums are computed exactly and the accumulator is a
 * pure function of the sample *multiset*: splitting a stream across
 * shards and merging gives bit-identical results to accumulating the
 * stream sequentially, for any split. The sharded execution mode
 * depends on this property; a Welford-style recurrence (the previous
 * implementation) is order-dependent in its low bits and cannot
 * provide it. The trade-off is that variance() loses precision for
 * non-integer samples with magnitudes above ~2^26 — no simulator
 * statistic is in that regime.
 */
class Accumulator
{
  public:
    /** Add one sample. */
    void add(double sample);

    /** Number of samples so far. */
    std::uint64_t count() const { return count_; }

    /** Sample mean (0 when empty). */
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Unbiased sample variance (0 with < 2 samples). */
    double variance() const;

    double min() const;
    double max() const;

    void reset();

    /**
     * Merge another accumulator into this one. Exact sums make the
     * merge associative and grouping-independent (bit-for-bit) for
     * integer-valued samples.
     */
    void merge(const Accumulator &other);

    void
    saveState(util::Serializer &s) const
    {
        s.put(count_);
        s.putDouble(sum_);
        s.putDouble(sum_sq_);
        s.putDouble(min_);
        s.putDouble(max_);
    }

    void
    loadState(util::Deserializer &d)
    {
        count_ = d.get<std::uint64_t>();
        sum_ = d.getDouble();
        sum_sq_ = d.getDouble();
        min_ = d.getDouble();
        max_ = d.getDouble();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Histogram with uniform buckets over [lo, hi); samples outside the
 * range land in underflow/overflow buckets.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void add(double sample);

    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    double bucketLo(std::size_t i) const;
    double bucketHi(std::size_t i) const;
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const { return total_; }

    /** Approximate quantile (linear interpolation within a bucket). */
    double quantile(double q) const;

    void reset();

    /**
     * Merge another histogram into this one (bucket geometries must
     * match). Counts add exactly, so the merge is grouping-independent.
     */
    void merge(const Histogram &other);

    /** Serialize the dynamic counts (bucket geometry is config). */
    void
    saveState(util::Serializer &s) const
    {
        s.put<std::uint64_t>(counts_.size());
        for (std::uint64_t c : counts_)
            s.put(c);
        s.put(underflow_);
        s.put(overflow_);
        s.put(total_);
    }

    void
    loadState(util::Deserializer &d)
    {
        if (d.get<std::uint64_t>() != counts_.size())
            d.fail("histogram bucket count mismatch");
        for (std::uint64_t &c : counts_)
            c = d.get<std::uint64_t>();
        underflow_ = d.get<std::uint64_t>();
        overflow_ = d.get<std::uint64_t>();
        total_ = d.get<std::uint64_t>();
    }

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace stats
} // namespace locsim

#endif // LOCSIM_STATS_STATS_HH_
