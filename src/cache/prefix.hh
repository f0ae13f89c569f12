/**
 * @file
 * Prefix-checkpoint incremental caching: never re-simulate a shared
 * warmup.
 *
 * The paper's sweeps evaluate many configurations that differ only in
 * late-binding parameters (measurement window and length, sampling,
 * output knobs) yet share an identical simulated trajectory up to the
 * warmup boundary. The PrefixPlanner exploits that: the machine state
 * at the warmup clock is content-addressed (cache::prefixKey, which
 * hashes everything that shapes the trajectory and *nothing* that
 * merely observes it) and stored as a checkpoint image in the
 * SimCache. A sweep point then restores the longest matching prefix
 * and simulates only its divergent suffix — the measurement window,
 * and of that only the cycles past the longest window image already
 * stored for the prefix (a shorter window's end).
 *
 * Exactness is inherited, not asserted: restore-then-extend is
 * bit-identical to a straight run (tests/checkpoint_test.cc,
 * tests/prefix_test.cc), so a prefix-cached sweep's stdout is byte-
 * equal to an uncached one at every shard count.
 *
 * Production is deduplicated at two levels: within a process, the
 * store's singleflight runs one producer per prefix key however many
 * runner::ThreadPool lanes ask; across processes, the atomic
 * temp+rename store makes concurrent producers race to write
 * identical bytes.
 */

#ifndef LOCSIM_CACHE_PREFIX_HH_
#define LOCSIM_CACHE_PREFIX_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/store.hh"
#include "machine/machine.hh"
#include "workload/mapping.hh"

namespace locsim {
namespace cache {

/**
 * Kept empty so callers that still spell `PrefixOptions{}` compile;
 * the planner has no knobs.
 */
struct PrefixOptions
{
};

/** One sweep point, as the planner sees it. */
struct PrefixPoint
{
    const machine::MachineConfig *config = nullptr;
    const workload::Mapping *mapping = nullptr;
    std::uint64_t warmup = 0;
};

/**
 * Plans and executes prefix reuse against one SimCache.
 *
 * Thread-safe: the planner holds no mutable state of its own; all
 * coordination lives in the store's singleflight map, so any number
 * of sweep workers may call warmMachine concurrently.
 */
class PrefixPlanner
{
  public:
    /** @param store backing cache (must outlive the planner). */
    explicit PrefixPlanner(SimCache &store, PrefixOptions = {});

    /**
     * A machine positioned at @p warmup processor cycles, by the
     * cheapest correct route: restored from the stored prefix image
     * when one exists, otherwise produced (a fresh machine advanced
     * to @p warmup) and stored exactly once under singleflight. An
     * image that fails to restore is dropped and the lookup retried
     * once, which produces a good image (or shares one another
     * thread produced); a second failure propagates. The returned
     * machine is ready for measure(window); its measurements are
     * bit-identical to Machine::run(warmup, window) on a fresh
     * machine.
     *
     * The machine carries this prefix's window images
     * (SimCache::longestWindow) for its first measure(window): that
     * call resumes from the longest stored window of at most
     * `window` cycles and stores the image at its own end, so a sweep
     * over window lengths simulates each cycle past the warm-up once.
     */
    std::unique_ptr<machine::Machine>
    warmMachine(const machine::MachineConfig &config,
                const workload::Mapping &mapping,
                std::uint64_t warmup) const;

    /**
     * The distinct prefix keys @p points will need — the images a
     * cold sweep produces (each exactly once). Order of first
     * appearance; duplicates collapse. This is the planner's
     * set-level view: `prefix_stores == distinctPrefixes().size()`
     * after a cold sweep, which the CI determinism job asserts via
     * the run manifest.
     */
    std::vector<std::string>
    distinctPrefixes(const std::vector<PrefixPoint> &points) const;

  private:
    SimCache &store_;
};

} // namespace cache
} // namespace locsim

#endif // LOCSIM_CACHE_PREFIX_HH_
