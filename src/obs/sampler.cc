/**
 * @file
 * MetricsSampler implementation.
 */

#include "obs/sampler.hh"

#include <ostream>

#include "util/logging.hh"

namespace locsim {
namespace obs {

MetricsSampler::MetricsSampler(sim::Tick period) : period_(period)
{
    LOCSIM_ASSERT(period >= 1, "sample period must be >= 1 tick");
}

void
MetricsSampler::addGauge(std::string name, Probe fn)
{
    probes_.emplace_back(std::move(name), Kind::Gauge, std::move(fn));
}

void
MetricsSampler::addRate(std::string name, Probe fn, double scale)
{
    ProbeEntry entry(std::move(name), Kind::Rate, std::move(fn));
    entry.scale = scale;
    entry.prev = entry.fn();
    probes_.push_back(std::move(entry));
}

void
MetricsSampler::addMean(std::string name, Probe sum_fn, Probe count_fn)
{
    ProbeEntry entry(std::move(name), Kind::Mean, std::move(sum_fn));
    entry.count_fn = std::move(count_fn);
    entry.prev = entry.fn();
    entry.prev_count = entry.count_fn();
    probes_.push_back(std::move(entry));
}

void
MetricsSampler::attachTracer(Tracer *tracer)
{
    tracer_ = tracer;
    if (tracer_ == nullptr)
        return;
    for (auto &probe : probes_) {
        if (probe.counter_track < 0)
            probe.counter_track =
                tracer_->newTrack("sampler." + probe.name);
        probe.counter_name = tracer_->intern(probe.name);
    }
}

void
MetricsSampler::sample(sim::Tick when)
{
    times_.push_back(when);
    for (auto &probe : probes_) {
        double value = 0.0;
        switch (probe.kind) {
          case Kind::Gauge:
            value = probe.fn();
            break;
          case Kind::Rate: {
            const double now_value = probe.fn();
            value = probe.scale * (now_value - probe.prev) /
                    static_cast<double>(period_);
            probe.prev = now_value;
            break;
          }
          case Kind::Mean: {
            const double now_sum = probe.fn();
            const double now_count = probe.count_fn();
            const double dc = now_count - probe.prev_count;
            value = dc > 0.0 ? (now_sum - probe.prev) / dc : 0.0;
            probe.prev = now_sum;
            probe.prev_count = now_count;
            break;
          }
        }
        probe.series.push_back(value);
        if (tracer_ != nullptr) {
            tracer_->counter(probe.counter_track, when,
                             probe.counter_name, value);
        }
    }
}

void
MetricsSampler::serialTick(sim::Tick now)
{
    LOCSIM_ASSERT(serialDue(now), "sampler ticked off its schedule: tick ",
                  now, " expected ", next_sample_);
    sample(now);
    next_sample_ = now + period_;
}

void
MetricsSampler::serialSkip(sim::Tick target)
{
    // The driver jumped over our sample points below `target` while
    // the whole machine was quiescent. Component state is frozen over
    // the stretch, so sampling the probes now yields exactly the
    // values a Reference-mode tick at each skipped point would have
    // seen; only the timestamps need reconstructing.
    for (; next_sample_ < target; next_sample_ += period_)
        sample(next_sample_);
}

const std::string &
MetricsSampler::probeName(std::size_t i) const
{
    LOCSIM_ASSERT(i < probes_.size(), "probe index out of range");
    return probes_[i].name;
}

const std::vector<double> &
MetricsSampler::series(std::size_t i) const
{
    LOCSIM_ASSERT(i < probes_.size(), "probe index out of range");
    return probes_[i].series;
}

void
MetricsSampler::clearSamples()
{
    times_.clear();
    for (auto &probe : probes_) {
        probe.series.clear();
        if (probe.kind == Kind::Rate || probe.kind == Kind::Mean)
            probe.prev = probe.fn();
        if (probe.kind == Kind::Mean)
            probe.prev_count = probe.count_fn();
    }
}

void
MetricsSampler::writeCsv(std::ostream &os) const
{
    os << "time";
    for (const auto &probe : probes_)
        os << ',' << probe.name;
    os << '\n';
    for (std::size_t row = 0; row < times_.size(); ++row) {
        os << times_[row];
        for (const auto &probe : probes_)
            os << ',' << probe.series[row];
        os << '\n';
    }
}

void
MetricsSampler::writeJson(std::ostream &os) const
{
    os << "{\"period\":" << period_ << ",\"time\":[";
    for (std::size_t i = 0; i < times_.size(); ++i)
        os << (i ? "," : "") << times_[i];
    os << "],\"series\":{";
    for (std::size_t p = 0; p < probes_.size(); ++p) {
        std::string name;
        appendJsonEscaped(name, probes_[p].name);
        os << (p ? "," : "") << '"' << name << "\":[";
        const auto &series = probes_[p].series;
        for (std::size_t i = 0; i < series.size(); ++i)
            os << (i ? "," : "") << series[i];
        os << ']';
    }
    os << "}}\n";
}

} // namespace obs
} // namespace locsim
