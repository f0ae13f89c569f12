/**
 * @file
 * Process-wide counter registry: one named, dumpable interface over
 * the counters that previously lived as ad-hoc fields scattered
 * across layers (simulation-cache hits/misses/dedup, engine skipped
 * ticks, router allocation stalls, cross-shard remote wakes, ...).
 *
 * Producers either accumulate deltas (`add`, e.g. every Machine adds
 * its fabric's totals at destruction so a sweep's counters sum over
 * all of its simulations) or publish an authoritative value (`set`,
 * e.g. the harness mirroring the sim cache's lifetime stats at
 * report time). Consumers take a sorted snapshot — the run manifest's
 * "counters" section is exactly `process().snapshot()`.
 *
 * The registry is deliberately off the simulation hot path: it is
 * touched at machine construction/destruction and report time only,
 * behind a mutex. Counter values are execution diagnostics, not
 * simulated results — they may legitimately vary with --shards
 * (e.g. remote wakes only exist when shards > 1) but are
 * deterministic for a fixed command line.
 */

#ifndef LOCSIM_OBS_COUNTERS_HH_
#define LOCSIM_OBS_COUNTERS_HH_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace locsim {
namespace obs {

/** Named monotonic counters, keyed by dotted lower-snake names. */
class CounterRegistry
{
  public:
    /** The process-wide registry. */
    static CounterRegistry &process();

    CounterRegistry() = default;
    CounterRegistry(const CounterRegistry &) = delete;
    CounterRegistry &operator=(const CounterRegistry &) = delete;

    /** Accumulate @p delta onto @p name (creating it at 0). */
    void add(const std::string &name, std::uint64_t delta);

    /** Overwrite @p name with @p value (creating it). */
    void set(const std::string &name, std::uint64_t value);

    /** All counters, sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>>
    snapshot() const;

    /** Drop every counter (tests; a fresh-run baseline). */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace obs
} // namespace locsim

#endif // LOCSIM_OBS_COUNTERS_HH_
