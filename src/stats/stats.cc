/**
 * @file
 * Statistics primitive implementations.
 */

#include "stats/stats.hh"

#include <algorithm>

#include "util/logging.hh"

namespace locsim {
namespace stats {

void
Accumulator::add(double sample)
{
    ++count_;
    sum_ += sample;
    sum_sq_ += sample * sample;
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
}

double
Accumulator::variance() const
{
    if (count_ < 2)
        return 0.0;
    const double n = static_cast<double>(count_);
    const double centered = sum_sq_ - sum_ * sum_ / n;
    // Cancellation can leave a tiny negative residual for
    // near-constant streams; variance is non-negative by definition.
    return std::max(0.0, centered / static_cast<double>(count_ - 1));
}

double
Accumulator::min() const
{
    return count_ ? min_ : 0.0;
}

double
Accumulator::max() const
{
    return count_ ? max_ : 0.0;
}

void
Accumulator::reset()
{
    *this = Accumulator();
}

void
Accumulator::merge(const Accumulator &other)
{
    if (other.count_ == 0)
        return;
    count_ += other.count_;
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0)
{
    LOCSIM_ASSERT(hi > lo, "histogram range must be non-empty");
    LOCSIM_ASSERT(buckets > 0, "histogram needs at least one bucket");
}

void
Histogram::add(double sample)
{
    ++total_;
    if (sample < lo_) {
        ++underflow_;
        return;
    }
    if (sample >= hi_) {
        ++overflow_;
        return;
    }
    auto idx = static_cast<std::size_t>((sample - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1); // guard FP edge at hi_
    ++counts_[idx];
}

double
Histogram::bucketLo(std::size_t i) const
{
    LOCSIM_ASSERT(i < counts_.size(), "bucket index out of range");
    return lo_ + width_ * static_cast<double>(i);
}

double
Histogram::bucketHi(std::size_t i) const
{
    return bucketLo(i) + width_;
}

double
Histogram::quantile(double q) const
{
    LOCSIM_ASSERT(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
    if (total_ == 0)
        return lo_;
    const double target = q * static_cast<double>(total_);
    double seen = static_cast<double>(underflow_);
    if (seen >= target)
        return lo_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double in_bucket = static_cast<double>(counts_[i]);
        if (seen + in_bucket >= target && in_bucket > 0) {
            const double frac = (target - seen) / in_bucket;
            return bucketLo(i) + frac * width_;
        }
        seen += in_bucket;
    }
    return hi_;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = overflow_ = total_ = 0;
}

void
Histogram::merge(const Histogram &other)
{
    LOCSIM_ASSERT(counts_.size() == other.counts_.size() &&
                      lo_ == other.lo_ && hi_ == other.hi_,
                  "histogram merge requires identical bucket geometry");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    total_ += other.total_;
}

} // namespace stats
} // namespace locsim
