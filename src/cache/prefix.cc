/**
 * @file
 * PrefixPlanner implementation.
 *
 * The load-bearing invariant: every machine this file hands out is at
 * the same state, bit for bit, as a fresh machine advanced straight to
 * the warmup clock. Restores are followed by nothing — the checkpoint
 * IS the state — and production is a fresh machine's straight
 * advance. The window images attached to it keep the invariant one
 * step further: each is the state a straight run reaches at the end
 * of its window.
 */

#include "cache/prefix.hh"

#include <exception>
#include <optional>
#include <unordered_set>
#include <utility>

#include "cache/key.hh"

namespace locsim {
namespace cache {

namespace {

/** Build the machine a prefix image describes (no tracer/sampler:
 *  checkpoints require an unobserved machine; observers attach to the
 *  suffix run only, and sampled runs bypass the cache entirely). */
std::unique_ptr<machine::Machine>
freshMachine(const machine::MachineConfig &config,
             const workload::Mapping &mapping)
{
    machine::MachineConfig ckpt_config = config;
    ckpt_config.trace.enabled = false;
    ckpt_config.sample_period = 0;
    return std::make_unique<machine::Machine>(ckpt_config, mapping);
}

/**
 * The window images of one prefix, for the machine warmMachine hands
 * out. Holds the warm-up image so a window image that verifies but
 * fails to restore (the machine then half-overwritten) can put the
 * machine back at the warm-up.
 */
class StoredWindows final : public machine::WindowImages
{
  public:
    StoredWindows(SimCache &store, std::string prefix_key,
                  std::vector<std::uint8_t> warm_image)
        : store_(store), prefix_key_(std::move(prefix_key)),
          warm_image_(std::move(warm_image))
    {
    }

    std::uint64_t
    resume(machine::Machine &machine, std::uint64_t window) override
    {
        std::optional<WindowImage> found =
            store_.longestWindow(prefix_key_, window);
        if (!found)
            return 0;
        try {
            machine.restoreCheckpoint(found->image);
            return found->window;
        } catch (const std::exception &) {
            store_.removeWindow(prefix_key_, found->window);
            machine.restoreCheckpoint(warm_image_);
            return 0;
        }
    }

    void
    store(std::uint64_t window,
          const std::vector<std::uint8_t> &image) override
    {
        store_.storeWindow(prefix_key_, window, image);
    }

  private:
    SimCache &store_;
    std::string prefix_key_;
    std::vector<std::uint8_t> warm_image_;
};

} // namespace

PrefixPlanner::PrefixPlanner(SimCache &store, PrefixOptions)
    : store_(store)
{
}

std::unique_ptr<machine::Machine>
PrefixPlanner::warmMachine(const machine::MachineConfig &config,
                           const workload::Mapping &mapping,
                           std::uint64_t warmup) const
{
    const std::string key = prefixKey(config, mapping, warmup);
    for (bool retried = false;; retried = true) {
        // Producer-reuse: when this caller wins the singleflight, it
        // keeps the machine it warmed and skips its own restore round
        // trip; every other caller (and every later process) restores
        // from the bytes the singleflight returned.
        std::unique_ptr<machine::Machine> produced;
        std::vector<std::uint8_t> image =
            store_.getOrRunCheckpoint(key, [&] {
                produced = freshMachine(config, mapping);
                produced->advance(warmup);
                return produced->saveCheckpoint();
            });
        std::unique_ptr<machine::Machine> machine = std::move(produced);
        if (!machine) {
            machine = freshMachine(config, mapping);
            try {
                machine->restoreCheckpoint(image);
            } catch (const std::exception &) {
                // Corrupt stored image (torn write, foreign bytes,
                // stale format): drop it and go round once more, which
                // stores a good image or shares one another thread
                // just produced.
                if (retried)
                    throw;
                store_.removeCheckpoint(key);
                continue;
            }
        }
        machine->setWindowImages(
            std::make_unique<StoredWindows>(store_, key, std::move(image)));
        return machine;
    }
}

std::vector<std::string>
PrefixPlanner::distinctPrefixes(
    const std::vector<PrefixPoint> &points) const
{
    std::vector<std::string> keys;
    std::unordered_set<std::string> seen;
    for (const PrefixPoint &point : points) {
        std::string key =
            prefixKey(*point.config, *point.mapping, point.warmup);
        if (seen.insert(key).second)
            keys.push_back(std::move(key));
    }
    return keys;
}

} // namespace cache
} // namespace locsim
