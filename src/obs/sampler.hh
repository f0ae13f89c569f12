/**
 * @file
 * Periodic metrics sampling.
 *
 * A MetricsSampler snapshots a set of registered probes every `period`
 * ticks into time-series,
 * for plotting model-vs-simulation divergence over time (channel
 * utilization rho, injection rate r_m, observed T_m, VC occupancy).
 *
 * Probes come in three kinds:
 *  - Gauge: record the probe's current value (e.g. buffered flits);
 *  - Rate:  record scale * d(value)/dt over the sample window (e.g.
 *           rho from a cumulative flit-hop counter);
 *  - Mean:  record d(sum)/d(count) over the window from a pair of
 *           cumulative sources (e.g. windowed mean message latency) —
 *           0 when the window saw no samples.
 *
 * The lockstep driver runs it at the serial point of every tick
 * (sim::LockstepSerial), against its own schedule: sample points at
 * 0, period, 2*period, ... The sampler never keeps the machine awake:
 * serialSkip() synthesizes the samples a quiescent stretch would have
 * produced (every probe reads component state, which by definition
 * cannot change while all components are idle, so the synthesized
 * samples are exactly what Reference-mode stepping records at the
 * same ticks).
 *
 * Series dump as CSV (one row per sample time) or JSON (columnar).
 */

#ifndef LOCSIM_OBS_SAMPLER_HH_
#define LOCSIM_OBS_SAMPLER_HH_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/lockstep.hh"
#include "sim/types.hh"

namespace locsim {
namespace obs {

/** Periodic snapshotting of registered metric probes. */
class MetricsSampler final : public sim::LockstepSerial
{
  public:
    using Probe = std::function<double()>;

    /**
     * @param period sample cadence in engine ticks (>= 1); the first
     *        sample point is tick 0.
     */
    explicit MetricsSampler(sim::Tick period);

    /** Record @p fn() at every sample point. */
    void addGauge(std::string name, Probe fn);

    /**
     * Record scale * (fn() - previous fn()) / period. @p fn must be
     * cumulative (monotone); the first window is measured from the
     * value at registration time.
     */
    void addRate(std::string name, Probe fn, double scale = 1.0);

    /** Record d(sum)/d(count) per window; 0 for empty windows. */
    void addMean(std::string name, Probe sum_fn, Probe count_fn);

    /**
     * Also emit every sample as a counter event on @p tracer (one
     * counter track per probe is created on first use).
     */
    void attachTracer(Tracer *tracer);

    /** @name Serial-point stepping (sim::LockstepSerial) */
    ///@{
    /** True when @p now is the next sample point. */
    bool serialDue(sim::Tick now) const override
    {
        return now == next_sample_;
    }
    /** Sample at the due point @p now. */
    void serialTick(sim::Tick now) override;
    /** Synthesize every sample point below @p target. */
    void serialSkip(sim::Tick target) override;
    ///@}

    sim::Tick period() const { return period_; }

    /** Sample timestamps (ticks). */
    const std::vector<sim::Tick> &times() const { return times_; }

    std::size_t probeCount() const { return probes_.size(); }
    const std::string &probeName(std::size_t i) const;

    /** Series for probe @p i, one value per entry of times(). */
    const std::vector<double> &series(std::size_t i) const;

    /**
     * Drop recorded samples and restart the rate/mean windows from
     * the sources' current values (e.g. after warmup). Sample cadence
     * is unaffected.
     */
    void clearSamples();

    /** CSV dump: header "time,<probe>,...", one row per sample. */
    void writeCsv(std::ostream &os) const;

    /** Columnar JSON dump: {"period":..,"time":[..],"series":{..}}. */
    void writeJson(std::ostream &os) const;

  private:
    enum class Kind : std::uint8_t { Gauge, Rate, Mean };

    struct ProbeEntry
    {
        ProbeEntry(std::string name, Kind kind, Probe fn)
            : name(std::move(name)), kind(kind), fn(std::move(fn))
        {
        }

        std::string name;
        Kind kind;
        Probe fn;
        Probe count_fn;       //!< Mean only
        double scale = 1.0;   //!< Rate only
        double prev = 0.0;    //!< previous cumulative value
        double prev_count = 0.0;
        std::vector<double> series;
        int counter_track = -1;
        /** Tracer-interned copy of `name` (counter event names must
            outlive this sampler; see Tracer::intern). */
        const char *counter_name = "";
    };

    /** Take one sample stamped at @p when. */
    void sample(sim::Tick when);

    sim::Tick period_;
    /** The next sample point: the sampler's one schedule. */
    sim::Tick next_sample_ = 0;
    std::vector<ProbeEntry> probes_;
    std::vector<sim::Tick> times_;
    Tracer *tracer_ = nullptr;
};

} // namespace obs
} // namespace locsim

#endif // LOCSIM_OBS_SAMPLER_HH_
